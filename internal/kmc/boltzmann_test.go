package kmc

import (
	"math"
	"testing"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// TestBoltzmannOccupancy is a statistical-mechanics validation of the
// whole engine: a single vacancy diffusing around a single Cu solute must
// visit binding shells with Boltzmann-weighted residence times,
//
//	t_shell / t_far = (n_shell / n_far) · exp(−(E_shell − E_far)/kT),
//
// where E_shell is the total energy with the vacancy in that shell. This
// only holds if rates satisfy detailed balance, the residence-time clock
// is correct, and the cached region energetics are exact — a full-stack
// equilibrium test. Hops are priced by eam.FastRegionEvaluator, the
// evaluator every EAM run uses; the eam tests hold it to the nine-pass
// RegionEvaluator.
func TestBoltzmannOccupancy(t *testing.T) {
	if testing.Short() {
		t.Skip("equilibrium sampling is slow")
	}
	const n = 10
	const temp = 1200.0 // flattens barriers: faster mixing, milder ratios
	a := units.LatticeConstantFe

	params := eam.Default()
	params.RCut = units.CutoffShort
	params.RIn = 4.6
	pot := eam.New(params)
	tb := encoding.New(a, units.CutoffShort)

	box := lattice.NewBox(n, n, n, a)
	cuPos := lattice.Vec{X: 10, Y: 10, Z: 10}
	box.Set(cuPos, lattice.Cu)
	box.Set(lattice.Vec{X: 2, Y: 2, Z: 2}, lattice.Vacancy)

	// Reference energies per shell from the continuous path (validated
	// against the engine's region path in the eam tests). The "far"
	// reference is a site outside the interaction range of Cu.
	energyWithVacAt := func(v lattice.Vec) float64 {
		work := box.Clone()
		work.Set(lattice.Vec{X: 2, Y: 2, Z: 2}, lattice.Fe) // remove original vacancy
		work.Set(v, lattice.Vacancy)
		var pos [][3]float64
		var spec []lattice.Species
		for i := 0; i < work.NumSites(); i++ {
			s := work.GetIndex(i)
			if !s.IsAtom() {
				continue
			}
			p := work.PositionOf(i, a)
			pos = append(pos, p)
			spec = append(spec, s)
		}
		return pot.StructureEnergy(pos, spec, [3]float64{a * n, a * n, a * n})
	}
	e1NN := energyWithVacAt(cuPos.Add(lattice.Vec{X: 1, Y: 1, Z: 1}))
	e2NN := energyWithVacAt(cuPos.Add(lattice.Vec{X: 2}))
	eFar := energyWithVacAt(cuPos.Add(lattice.Vec{X: 9, Y: 9, Z: 9}))

	// Shell populations: 8 first neighbours, 6 second neighbours; "far"
	// counts sites beyond the interaction range.
	n2cut := lattice.HalfUnitsForCutoff(params.RCut, a)
	nFar := 0
	for i := 0; i < box.NumSites(); i++ {
		d := minImage(box.SiteAt(i).Sub(cuPos), 2*n)
		if d.Norm2() > n2cut {
			nFar++
		}
	}

	model := eam.NewFastRegionEvaluator(pot, tb)
	eng := NewEngine(box, model, temp, rng.New(77), Options{})

	// Accumulate residence time per shell. The vacancy's residence in
	// the CURRENT state lasts until the next event, so attribute each
	// Δt to the state before the hop.
	var t1NN, t2NN, tFar float64
	cu := cuPos
	vac := lattice.Vec{X: 2, Y: 2, Z: 2}
	classify := func() *float64 {
		d := minImage(vac.Sub(cu), 2*n)
		switch {
		case d.Norm2() == 3:
			return &t1NN
		case d.Norm2() == 4:
			return &t2NN
		case d.Norm2() > n2cut:
			return &tFar
		default:
			return nil
		}
	}
	const steps = 60000
	for i := 0; i < steps; i++ {
		bucket := classify()
		ev, ok := eng.Step(1e300)
		if !ok {
			t.Fatal("engine exhausted")
		}
		if bucket != nil {
			*bucket += ev.DeltaT
		}
		vac = ev.To
		if ev.Mover == lattice.Cu {
			cu = ev.From // the Cu atom moved into the old vacancy site
		}
	}
	if t1NN == 0 || tFar == 0 {
		t.Fatalf("insufficient sampling: t1NN=%v tFar=%v", t1NN, tFar)
	}

	beta := units.Beta(temp)
	check := func(name string, tShell float64, nShell int, eShell float64) {
		measured := (tShell / float64(nShell)) / (tFar / float64(nFar))
		predicted := math.Exp(-(eShell - eFar) * beta)
		logErr := math.Abs(math.Log(measured / predicted))
		t.Logf("%s: per-site occupancy ratio measured %.3f, Boltzmann %.3f (ΔE=%.3f eV)",
			name, measured, predicted, eShell-eFar)
		if logErr > 0.5 {
			t.Errorf("%s occupancy violates Boltzmann statistics: measured %.3f vs predicted %.3f",
				name, measured, predicted)
		}
	}
	check("1NN", t1NN, 8, e1NN)
	check("2NN", t2NN, 6, e2NN)
}

// minImage wraps a displacement into the minimum periodic image.
func minImage(d lattice.Vec, period int) lattice.Vec {
	w := func(x int) int {
		x %= period
		if x < -period/2 {
			x += period
		}
		if x >= period/2 {
			x -= period
		}
		return x
	}
	return lattice.Vec{X: w(d.X), Y: w(d.Y), Z: w(d.Z)}
}
