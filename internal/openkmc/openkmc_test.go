package openkmc

import (
	"math"
	"testing"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func setup(t *testing.T, n int, cuFrac, vacFrac float64, seed uint64) (*lattice.Box, *eam.Potential) {
	t.Helper()
	box := lattice.NewBox(n, n, n, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, cuFrac, vacFrac, rng.New(seed))
	return box, eam.New(eam.Default())
}

func TestBaselineConservation(t *testing.T) {
	box, pot := setup(t, 10, 0.05, 0.002, 1)
	fe0, cu0, vac0 := box.Count()
	e := NewEngine(box, pot, units.CutoffStandard, units.ReactorTemperature, rng.New(2))
	if got := e.RunSteps(50); got != 50 {
		t.Fatalf("executed %d steps, want 50", got)
	}
	fe1, cu1, vac1 := box.Count()
	if fe0 != fe1 || cu0 != cu1 || vac0 != vac1 {
		t.Fatal("species not conserved")
	}
	if e.time <= 0 || e.steps != 50 {
		t.Fatal("clock/step bookkeeping wrong")
	}
}

// TestStoredArraysStayFresh: after evolution, every stored E_V/E_R entry
// must equal a from-scratch recomputation — the cache-all invariant.
func TestStoredArraysStayFresh(t *testing.T) {
	box, pot := setup(t, 10, 0.08, 0.003, 3)
	e := NewEngine(box, pot, units.CutoffStandard, units.ReactorTemperature, rng.New(4))
	e.RunSteps(60)
	for i := 0; i < box.NumSites(); i++ {
		v := box.SiteAt(i)
		wantEV, wantER := e.eV[i], e.eR[i]
		e.recomputeSite(v)
		if math.Abs(e.eV[i]-wantEV) > 1e-9 || math.Abs(e.eR[i]-wantER) > 1e-9 {
			t.Fatalf("stored arrays stale at site %d (%v)", i, v)
		}
	}
}

// TestFig8TrajectoryEquivalence is the core validation of the paper's
// Fig. 8: the TensorKMC engine (triple encoding + vacancy cache) and the
// OpenKMC cache-all baseline — two independent computational paths — must
// produce the identical event sequence from the same seed.
func TestFig8TrajectoryEquivalence(t *testing.T) {
	boxA, pot := setup(t, 12, 0.0134*4, 0.002, 5)
	boxB := boxA.Clone()

	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	tkmc := kmc.NewEngine(boxA, eam.NewRegionEvaluator(pot, tb), units.ReactorTemperature, rng.New(6), kmc.Options{})
	base := NewEngine(boxB, pot, units.CutoffStandard, units.ReactorTemperature, rng.New(6))

	for i := 0; i < 150; i++ {
		evA, okA := tkmc.Step(1e300)
		evB, okB := base.Step(1e300)
		if okA != okB {
			t.Fatalf("step %d: availability diverged", i)
		}
		if !okA {
			break
		}
		if evA.Slot != evB.Slot || evA.Direction != evB.Direction || evA.From != evB.From || evA.To != evB.To {
			t.Fatalf("step %d: events diverged: %+v vs %+v", i, evA, evB)
		}
	}
	if !boxA.Equal(boxB) {
		t.Fatal("final configurations differ")
	}
	if math.Abs(tkmc.Time()-base.time) > 1e-9*tkmc.Time() {
		t.Fatalf("clocks diverged: %v vs %v", tkmc.Time(), base.time)
	}
}

// TestMemoryBreakdown pins the Table 1 shape: the baseline's per-atom
// arrays dominate its footprint and exceed the bare lattice by more than
// an order of magnitude.
func TestMemoryBreakdown(t *testing.T) {
	box, pot := setup(t, 10, 0.05, 0.001, 7)
	e := NewEngine(box, pot, units.CutoffStandard, units.ReactorTemperature, rng.New(8))
	m := e.Memory()
	n := box.NumSites()
	if m.T != 12*n {
		t.Fatalf("T bytes = %d, want %d", m.T, 12*n)
	}
	if m.PosID != 4*4*n {
		t.Fatalf("POS_ID bytes = %d, want %d (4 cells/site, half wasted)", m.PosID, 16*n)
	}
	if m.EV != 8*n || m.ER != 8*n {
		t.Fatal("E_V/E_R bytes wrong")
	}
	if m.Neigh != 4*56*n {
		t.Fatalf("Neigh bytes = %d, want %d (56 int32 per site, Newton half list)", m.Neigh, 4*56*n)
	}
	if m.Lattice != n {
		t.Fatal("lattice bytes wrong")
	}
	if m.Total() < 200*n {
		t.Fatalf("cache-all total %d bytes for %d sites — expected ≥ 200 B/site with half neighbour lists", m.Total(), n)
	}
}

func TestPosIDLookupConsistent(t *testing.T) {
	box, pot := setup(t, 8, 0.05, 0.001, 9)
	e := NewEngine(box, pot, units.CutoffStandard, units.ReactorTemperature, rng.New(10))
	for i := 0; i < box.NumSites(); i += 17 {
		v := box.SiteAt(i)
		if e.index(v) != i {
			t.Fatalf("POS_ID lookup of %v = %d, want %d", v, e.index(v), i)
		}
		// Periodic images must resolve to the same site.
		img := lattice.Vec{X: v.X + 2*box.Nx, Y: v.Y - 2*box.Ny, Z: v.Z}
		if e.index(img) != i {
			t.Fatal("POS_ID periodic image lookup failed")
		}
	}
}

// RunSteps executes up to n hops with no time limit.
func (e *Engine) RunSteps(n int) int {
	done := 0
	for i := 0; i < n; i++ {
		if _, ok := e.Step(1e300); !ok {
			break
		}
		done++
	}
	return done
}
