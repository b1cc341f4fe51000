package core_test

import (
	"os"
	"runtime"
	"testing"

	"tensorkmc/internal/core"
	"tensorkmc/internal/input"
)

// TestSetupAllocation: once a process holds the tables, core.New on the
// plain serial benchmark deck allocates under 100 KB — the box and the
// vacancy cache, no geometry. The tables alone are 576 KB.
func TestSetupAllocation(t *testing.T) {
	f, err := os.Open("../../bench/decks/eam_serial.deck")
	if err != nil {
		t.Fatal(err)
	}
	deck, err := input.Parse(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := deck.Finish()
	if err != nil {
		t.Fatal(err)
	}
	newSim := func() {
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	newSim()
	// The least of three, so a stray allocation elsewhere in the process
	// does not count against core.New.
	least := ^uint64(0)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		newSim()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least >= 100<<10 {
		t.Fatalf("a second core.New allocated %d KB, want < 100 KB", least>>10)
	}
	t.Logf("a second core.New allocated %.1f KB", float64(least)/1024)
}
