package diffusion

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

func TestWrapDisp(t *testing.T) {
	cases := []struct{ x, period, want int }{
		{1, 20, 1}, {-1, 20, -1}, {19, 20, -1}, {-19, 20, 1}, {0, 20, 0},
	}
	for _, c := range cases {
		if got := wrapDisp(c.x, c.period); got != c.want {
			t.Errorf("wrapDisp(%d,%d) = %d, want %d", c.x, c.period, got, c.want)
		}
	}
}

func TestTrackerAccounting(t *testing.T) {
	box := lattice.NewBox(8, 8, 8, 2.87)
	tr := NewTracker(box, 2)
	// Two hops of vacancy 0 in the same direction.
	ev := kmc.Event{Slot: 0, From: lattice.Vec{X: 1, Y: 1, Z: 1}, To: lattice.Vec{X: 2, Y: 2, Z: 2}, DeltaT: 1e-9}
	tr.Record(ev)
	ev = kmc.Event{Slot: 0, From: lattice.Vec{X: 2, Y: 2, Z: 2}, To: lattice.Vec{X: 3, Y: 3, Z: 3}, DeltaT: 1e-9}
	tr.Record(ev)
	if tr.Hops() != 2 || tr.Time() != 2e-9 {
		t.Fatal("hop/time accounting wrong")
	}
	// Displacement (2,2,2) half-units → |d|² = 12 → 12·a²/4 per-vacancy,
	// averaged over 2 vacancies.
	want := 12.0 * 2.87 * 2.87 / 4 / 2
	if math.Abs(tr.MSD(2.87)-want) > 1e-12 {
		t.Fatalf("MSD = %v, want %v", tr.MSD(2.87), want)
	}
}

func TestTrackerPeriodicUnwrap(t *testing.T) {
	box := lattice.NewBox(4, 4, 4, 2.87)
	tr := NewTracker(box, 1)
	// Hop across the periodic boundary: from (7,7,7) to (0,0,0) is a
	// (+1,+1,+1) step, not (−7,−7,−7).
	tr.Record(kmc.Event{Slot: 0, From: lattice.Vec{X: 7, Y: 7, Z: 7}, To: lattice.Vec{X: 0, Y: 0, Z: 0}, DeltaT: 1e-9})
	if tr.disp[0] != [3]int{1, 1, 1} {
		t.Fatalf("unwrap failed: %v", tr.disp[0])
	}
}

// TestPureFeDiffusionCoefficient validates the engine's kinetics against
// the closed-form vacancy diffusivity D = Γ_hop·a². A single vacancy
// (multiple vacancies in a small box would find and trap each other —
// real divacancy physics, but not this test) walks in pure Fe; segment
// averaging over one trajectory supplies the statistics.
func TestPureFeDiffusionCoefficient(t *testing.T) {
	a := units.LatticeConstantFe
	box := lattice.NewBox(12, 12, 12, a)
	box.Set(lattice.Vec{X: 2, Y: 2, Z: 2}, lattice.Vacancy)
	tb := encoding.New(a, units.CutoffStandard)
	eng := kmc.NewEngine(box, eam.NewRegionEvaluator(eam.New(eam.Default()), tb), units.ReactorTemperature, rng.New(41), kmc.Options{})
	tr := NewTracker(box, 1)
	const segments = 40
	const hopsPerSegment = 150
	var sumD, sumF float64
	for seg := 0; seg < segments; seg++ {
		tr.Reset()
		for i := 0; i < hopsPerSegment; i++ {
			ev, ok := eng.Step(1e300)
			if !ok {
				t.Fatal("engine exhausted")
			}
			tr.Record(ev)
		}
		sumD += tr.Coefficient(a)
		sumF += tr.CorrelationFactor(a)
	}
	measured := sumD / segments
	f := sumF / segments
	hopRate := units.ArrheniusRate(units.EA0Fe, units.ReactorTemperature)
	want := TheoreticalPureFe(hopRate, a)
	if rel := math.Abs(measured-want) / want; rel > 0.2 {
		t.Fatalf("D = %.4g Å²/s, theory %.4g (rel err %.2f)", measured, want, rel)
	}
	if f < 0.8 || f > 1.2 {
		t.Fatalf("pure-Fe correlation factor %.3f, want ≈1 (uncorrelated walk)", f)
	}
	t.Logf("vacancy diffusivity: measured %.4g Å²/s vs theory %.4g Å²/s (f=%.3f)", measured, want, f)
}

// TestClusterTrapAnticorrelated: a vacancy bound to a compact Cu
// precipitate at low temperature flickers in its trap, so successive
// hops anti-correlate and the correlation factor drops well below the
// pure-Fe value of ≈1 — the microscopic origin of slow precipitate
// coarsening.
func TestClusterTrapAnticorrelated(t *testing.T) {
	if testing.Short() {
		t.Skip("kinetics sampling is slow")
	}
	a := units.LatticeConstantFe
	box := lattice.NewBox(12, 12, 12, a)
	// A compact Cu cluster: a site and its 8 first neighbours plus 6
	// second neighbours.
	centre := lattice.Vec{X: 12, Y: 12, Z: 12}
	box.Set(centre, lattice.Cu)
	for _, d := range lattice.NN1 {
		box.Set(centre.Add(d), lattice.Cu)
	}
	for _, d := range []lattice.Vec{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}, {Z: 2}, {Z: -2}} {
		box.Set(centre.Add(d), lattice.Cu)
	}
	// Start the vacancy inside the trap (replace one shell atom).
	box.Set(centre.Add(lattice.Vec{X: 1, Y: 1, Z: 1}), lattice.Vacancy)

	tb := encoding.New(a, units.CutoffStandard)
	const temp = 420.0 // deep-trap regime
	eng := kmc.NewEngine(box, eam.NewRegionEvaluator(eam.New(eam.Default()), tb), temp, rng.New(43), kmc.Options{})
	tr := NewTracker(box, 1)
	const segments = 15
	var sumF float64
	for seg := 0; seg < segments; seg++ {
		tr.Reset()
		for i := 0; i < 150; i++ {
			ev, ok := eng.Step(1e300)
			if !ok {
				t.Fatal("engine exhausted")
			}
			tr.Record(ev)
		}
		sumF += tr.CorrelationFactor(a)
	}
	f := sumF / segments
	if f >= 0.7 {
		t.Fatalf("trapped-walk correlation factor %.3f, want < 0.7", f)
	}
	t.Logf("trapped-walk correlation factor: %.3f", f)
}

func TestTrackerPanics(t *testing.T) {
	box := lattice.NewBox(4, 4, 4, 2.87)
	tr := NewTracker(box, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad slot")
		}
	}()
	tr.Record(kmc.Event{Slot: 5})
}

// TestSoluteTrackerFollowsCu: a tagged Cu atom must move exactly when a
// vacancy exchanges with it, and its tracer diffusivity must be far
// below the vacancy's (solute transport is vacancy-mediated).
func TestSoluteTrackerFollowsCu(t *testing.T) {
	a := units.LatticeConstantFe
	box := lattice.NewBox(10, 10, 10, a)
	cuPos := lattice.Vec{X: 10, Y: 10, Z: 10}
	box.Set(cuPos, lattice.Cu)
	box.Set(lattice.Vec{X: 2, Y: 2, Z: 2}, lattice.Vacancy)
	tb := encoding.New(a, units.CutoffStandard)
	eng := kmc.NewEngine(box, eam.NewFastRegionEvaluator(eam.New(eam.Default()), tb), units.ReactorTemperature, rng.New(61), kmc.Options{})
	st := NewSoluteTracker(box, []lattice.Vec{cuPos})
	vt := NewTracker(box, 1)
	cuMoves := int64(0)
	for i := 0; i < 3000; i++ {
		ev, ok := eng.Step(1e300)
		if !ok {
			t.Fatal("engine exhausted")
		}
		if ev.Mover == lattice.Cu {
			cuMoves++
		}
		st.Record(ev)
		vt.Record(ev)
	}
	if st.Moves() != cuMoves {
		t.Fatalf("tracker saw %d Cu moves, engine reported %d", st.Moves(), cuMoves)
	}
	// The tracked position must actually hold the Cu atom.
	var found lattice.Vec
	for i := 0; i < box.NumSites(); i++ {
		if box.GetIndex(i) == lattice.Cu {
			found = box.SiteAt(i)
		}
	}
	if st.pos[0] != found {
		t.Fatalf("tracker lost the Cu atom: tracked %v, actual %v", st.pos[0], found)
	}
	// Solute transport is much slower than vacancy transport.
	dCu := st.Coefficient(a)
	dVac := vt.Coefficient(a)
	if dCu >= dVac/3 {
		t.Fatalf("Cu diffusivity %v not ≪ vacancy diffusivity %v", dCu, dVac)
	}
}

// Reset zeroes the accumulated displacements, hop counts and clock
// (segment averaging for single-walker statistics).
func (t *Tracker) Reset() {
	for i := range t.disp {
		t.disp[i] = [3]int{}
		t.hops[i] = 0
	}
	t.time = 0
}
