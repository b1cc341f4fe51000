package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/units"
)

// tablesDigest is the SHA-256 of every field of tb, the elements of every
// slice and array included, unexported ones too.
func tablesDigest(t *testing.T, tb *encoding.Tables) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			put(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			put(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			put(v.Uint())
		case reflect.Float64:
			put(math.Float64bits(v.Float()))
		default:
			t.Fatalf("tablesDigest: no rule for a %v field", v.Kind())
		}
	}
	walk(reflect.ValueOf(tb))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestTablesNeverWritten: one process runs a serial EAM, a ranks 2 1 1,
// an NNP and a loopback-fleet simulation on the shared tables of
// (2.87 Å, 6.5 Å), and not one of their bytes changes.
func TestTablesNeverWritten(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	want := tablesDigest(t, tb)
	serial := Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002, Seed: 21}
	fleet := serial
	fleet.EvalFleet = startServeNodes(t, 2, serial)
	cases := []struct {
		name     string
		cfg      Config
		duration float64
	}{
		{"eam", serial, 1e-7},
		{"eam ranks 2 1 1", Config{Cells: [3]int{12, 6, 8}, CuFraction: 0.05, VacancyFraction: 0.01, Temperature: 1000, Seed: 16, Ranks: [3]int{2, 1, 1}, TStop: 1e-10}, 2e-9},
		{"nnp", Config{Cells: [3]int{8, 8, 8}, CuFraction: 0.0134, VacancyFraction: 0.001, Temperature: 1000, Seed: 14, Potential: NNP, Net: goldenNNP()}, 3e-8},
		{"eam fleet", fleet, 1e-7},
	}
	for _, c := range cases {
		s, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s.Tables != tb {
			t.Fatalf("%s: core.New built its own tables", c.name)
		}
		rep, err := s.Run(c.duration, nil)
		s.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Hops == 0 {
			t.Fatalf("%s: no hop", c.name)
		}
		if tablesDigest(t, tb) != want {
			t.Fatalf("%s: the run wrote the shared tables", c.name)
		}
	}
}
