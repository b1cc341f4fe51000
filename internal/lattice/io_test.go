package lattice

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tensorkmc/internal/fault"
	"tensorkmc/internal/rng"
)

func TestBoxSaveLoadRoundTrip(t *testing.T) {
	b := NewBox(6, 5, 4, 2.87)
	FillRandomAlloy(b, 0.1, 0.01, rng.New(1))
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBox(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Equal(loaded) {
		t.Fatal("round trip lost state")
	}
	if loaded.A != b.A {
		t.Fatal("lattice constant lost")
	}
}

func TestBoxSaveLoadFile(t *testing.T) {
	b := NewBox(4, 4, 4, 2.87)
	FillRandomAlloy(b, 0.2, 0.0, rng.New(2))
	path := filepath.Join(t.TempDir(), "snap.box")
	if err := fault.WriteFileAtomic(path, false, b.Save); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := LoadBox(f)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Equal(loaded) {
		t.Fatal("file round trip lost state")
	}
}

func TestLoadBoxRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("TKMCBOX1 truncated"),
	}
	for _, c := range cases {
		if _, err := LoadBox(bytes.NewReader(c)); err == nil {
			t.Fatalf("LoadBox accepted %q", c)
		}
	}
}

func TestLoadBoxRejectsInvalidSpecies(t *testing.T) {
	b := NewBox(2, 2, 2, 2.87)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] = 99 // corrupt a species byte
	if _, err := LoadBox(bytes.NewReader(data)); err == nil {
		t.Fatal("LoadBox accepted invalid species")
	}
}

func TestWriteXYZ(t *testing.T) {
	b := NewBox(3, 3, 3, 2.87)
	b.Set(Vec{X: 1, Y: 1, Z: 1}, Cu)
	b.Set(Vec{X: 2, Y: 2, Z: 2}, Vacancy)

	var full bytes.Buffer
	if err := b.WriteXYZ(&full, "t=0", false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(full.String()), "\n")
	if lines[0] != "54" {
		t.Fatalf("full export count line = %q, want 54", lines[0])
	}
	if !strings.Contains(lines[1], "Lattice=") || !strings.Contains(lines[1], "t=0") {
		t.Fatalf("header missing metadata: %q", lines[1])
	}
	if len(lines) != 2+54 {
		t.Fatalf("expected 56 lines, got %d", len(lines))
	}

	var solute bytes.Buffer
	if err := b.WriteXYZ(&solute, "", true); err != nil {
		t.Fatal(err)
	}
	sl := strings.Split(strings.TrimSpace(solute.String()), "\n")
	if sl[0] != "2" {
		t.Fatalf("solute export count = %q, want 2", sl[0])
	}
	body := strings.Join(sl[2:], "\n")
	if !strings.Contains(body, "Cu ") || !strings.Contains(body, "X ") {
		t.Fatalf("solute export missing species: %q", body)
	}
	if strings.Contains(body, "Fe ") {
		t.Fatal("solute export contains Fe")
	}
}
