package kmc

import (
	"testing"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// TestEngineDifferential checks the vacancy cache against the lattice
// after every one of 2000 hops: each cached VET — the hopper's, refilled
// by a lattice walk at the hop, and every neighbour's, patched in place —
// must equal a fresh generic FillVET. The box is Cu-rich, holds nine
// vacancies and is 12 half-units wide under a 19-wide VET, so every
// system wraps every face and one changed site patches several entries
// of the same VET: the box the engine keeps the lattice walk for
// (TestHopBookkeepingProperty is this test on boxes it translates on).
// The Stats literals were recorded at commit ac23b9f
// (before the division-free walk): refill, patch and refresh counts are
// part of the ledger's exact-count contract and may not move. Since the
// memo, a refresh is either a model call or a memo hit, so their sum is
// what keeps the recorded 18009; the split between them is pinned too.
func TestEngineDifferential(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	model := eam.NewFastRegionEvaluator(eam.New(eam.Default()), tb)
	box := lattice.NewBox(6, 6, 6, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.25, 0.02, rng.New(21))
	e := NewEngine(box, model, 1000, rng.New(22), Options{})
	if e.NumVacancies() != 9 {
		t.Fatalf("box holds %d vacancies, want 9", e.NumVacancies())
	}

	fresh := tb.NewVET()
	for hop := 0; hop < 2000; hop++ {
		if _, ok := e.Step(1e300); !ok {
			t.Fatalf("no event possible at hop %d", hop)
		}
		// Bring every system up to date now; the next Step would do
		// exactly this first, so the trajectory and counts are unchanged.
		e.TotalRate()
		for slot, s := range e.cache.Systems {
			if !s.Filled || s.Dirty {
				t.Fatalf("hop %d: slot %d not refreshed", hop, slot)
			}
			tb.FillVET(fresh, s.Centre, box.Get)
			for j := range fresh {
				if s.VET[j] != fresh[j] {
					t.Fatalf("hop %d: cached VET of slot %d (centre %v) differs from the lattice at entry %d (%v vs %v)",
						hop, slot, s.Centre, j, s.VET[j], fresh[j])
				}
			}
		}
	}
	got := e.Stats()
	if got.Refills != 2009 || got.Patches != 43430 || got.Refreshes+got.MemoHits != 18009 {
		t.Fatalf("Stats = %+v, recorded 2009 refills, 43430 patches and 18009 refreshes", got)
	}
	if got.MemoHits != 14121 {
		t.Fatalf("%d of the 18009 refreshes hit the memo, recorded 14121", got.MemoHits)
	}
}

// TestEngineStepAllocatesNothing: a steady-state hop — VET rebuild, EAM
// evaluation, selection, lattice swap, two invalidations — reuses the
// engine's scratch and allocates nothing, whether it walks the lattice
// (the 8³ box is no wider than the table) or translates the VET and asks
// the centre set (12³).
func TestEngineStepAllocatesNothing(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	model := eam.NewFastRegionEvaluator(eam.New(eam.Default()), tb)
	for _, cells := range []int{8, 12} {
		box := lattice.NewBox(cells, cells, cells, units.LatticeConstantFe)
		lattice.FillRandomAlloy(box, 0.05, 0.004, rng.New(31))
		e := NewEngine(box, model, units.ReactorTemperature, rng.New(32), Options{})
		e.RunSteps(10) // first refreshes done, scratch warm
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := e.Step(1e300); !ok {
				t.Fatal("no event possible")
			}
		})
		if allocs != 0 {
			t.Fatalf("%d³ cells: Engine.Step allocates %v objects per hop, want 0", cells, allocs)
		}
	}
}
