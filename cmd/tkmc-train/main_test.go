package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"tensorkmc/internal/nnp"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("64, 32,16,1")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{64, 32, 16, 1}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("parseSizes = %v", got)
		}
	}
	if _, err := parseSizes("64,x,1"); err == nil {
		t.Fatal("expected error")
	}
}

// TestTrainRunEndToEnd drives the CLI path at tiny scale and checks the
// written potential loads.
func TestTrainRunEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.pot")
	err := run(16, 12, 5, 6, 1e-3, 0, 0, "64,8,1", 1, out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
	pot, err := nnp.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if pot.Desc.Dim() != 64 {
		t.Fatal("loaded potential has wrong descriptor")
	}
}

func TestTrainRunValidation(t *testing.T) {
	if err := run(10, 10, 5, 5, 1e-3, 0, 0, "64,8,1", 1, "x"); err == nil {
		t.Fatal("train >= total should error")
	}
	if err := run(10, 5, 5, 5, 1e-3, 0, 0, "bad", 1, "x"); err == nil {
		t.Fatal("bad sizes should error")
	}
	// A NaN learning rate or a zero layer width is an error, not a
	// written file of NaN weights or a panic.
	out := filepath.Join(t.TempDir(), "p.pot")
	if err := run(10, 5, 1, 5, math.NaN(), 0, 0, "64,8,1", 1, out); err == nil {
		t.Fatal("NaN learning rate should error")
	}
	if err := run(10, 5, 1, 5, 1e-3, 0, 0, "64,0,1", 1, out); err == nil {
		t.Fatal("zero layer width should error")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused run left %s behind (stat error %v)", out, err)
	}
}
