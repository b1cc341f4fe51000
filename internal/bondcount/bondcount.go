// Package bondcount implements the classic tabulated AKMC energy model —
// the paper's "first approach" (Sec. 1): interaction parameters are
// established *before* the simulation as nearest-neighbour bond energies
// and consumed as tabulates during the run. This is the
// Vincent/Soisson-style Fe–Cu pair-interaction parameterisation that
// pre-NNP AKMC studies of Cu precipitation used; TensorKMC's argument is
// that such models trade physical fidelity for speed, which the
// model-comparison benches quantify.
//
// The total energy is a sum over first- and second-neighbour bonds,
//
//	E = Σ_{1NN pairs} ε¹(a,b) + Σ_{2NN pairs} ε²(a,b),
//
// with vacancies contributing no bonds. The evaluator implements the
// same kmc.Model interface as the EAM and NNP paths, so the engines run
// unchanged on it.
package bondcount

import (
	"fmt"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
)

// Params are the bond-energy tables in eV, indexed by the two bond
// elements, for the first and second neighbour shells.
type Params struct {
	E1 [lattice.NumElements][lattice.NumElements]float64
	E2 [lattice.NumElements][lattice.NumElements]float64
}

// FeCu returns a literature-style Fe–Cu parameter set: cohesive-scale
// bond energies with a positive unmixing tendency
// (2·ε_FeCu − ε_FeFe − ε_CuCu > 0), which drives Cu precipitation.
func FeCu() Params {
	var p Params
	p.E1[lattice.Fe][lattice.Fe] = -0.65
	p.E1[lattice.Cu][lattice.Cu] = -0.60
	p.E1[lattice.Fe][lattice.Cu] = -0.57
	p.E1[lattice.Cu][lattice.Fe] = -0.57
	p.E2[lattice.Fe][lattice.Fe] = -0.33
	p.E2[lattice.Cu][lattice.Cu] = -0.31
	p.E2[lattice.Fe][lattice.Cu] = -0.29
	p.E2[lattice.Cu][lattice.Fe] = -0.29
	return p
}

// Evaluator implements kmc.Model on the triple-encoding tables. Only the
// first two distance shells carry energy; the tables may have any cutoff
// of at least the 2NN distance.
type Evaluator struct {
	P  Params
	Tb *encoding.Tables
	// shellOf maps a NET distance index to 0 (1NN), 1 (2NN) or -1.
	shellOf []int
}

// NewEvaluator binds the parameters to encoding tables.
func NewEvaluator(p Params, tb *encoding.Tables) *Evaluator {
	if len(tb.Distances) < 2 {
		panic("bondcount: tables must cover at least the 2NN shell")
	}
	e := &Evaluator{P: p, Tb: tb, shellOf: make([]int, len(tb.Distances))}
	for i := range e.shellOf {
		switch i {
		case 0, 1:
			e.shellOf[i] = i
		default:
			e.shellOf[i] = -1
		}
	}
	return e
}

// Tables implements kmc.Model.
func (e *Evaluator) Tables() *encoding.Tables { return e.Tb }

// SiteEnergy returns half the bond sum of region site i (half, because
// each bond is shared by two sites).
func (e *Evaluator) SiteEnergy(vet encoding.VET, i int) float64 {
	s := vet[i]
	if !s.IsAtom() {
		return 0
	}
	var sum float64
	for _, nb := range e.Tb.Neighbors(i) {
		shell := e.shellOf[nb.DistIndex]
		if shell < 0 {
			continue
		}
		o := vet[nb.ID]
		if !o.IsAtom() {
			continue
		}
		if shell == 0 {
			sum += e.P.E1[s][o]
		} else {
			sum += e.P.E2[s][o]
		}
	}
	return 0.5 * sum
}

// RegionEnergy sums site energies over the jumping region.
func (e *Evaluator) RegionEnergy(vet encoding.VET) float64 {
	var total float64
	for i := 0; i < e.Tb.NRegion; i++ {
		total += e.SiteEnergy(vet, i)
	}
	return total
}

// HopEnergies implements kmc.Model: the 1+8-state evaluation.
func (e *Evaluator) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	initial = e.RegionEnergy(vet)
	for k := 0; k < 8; k++ {
		if !vet[e.Tb.NN1Index[k]].IsAtom() {
			continue
		}
		e.Tb.ApplyHop(vet, k)
		final[k] = e.RegionEnergy(vet)
		valid[k] = true
		e.Tb.ApplyHop(vet, k)
	}
	return initial, final, valid
}

// BoxEnergy computes the total bond energy of a whole box directly (the
// independent test oracle for region-based ΔE values).
func BoxEnergy(p Params, box *lattice.Box) float64 {
	var total float64
	shell2 := []lattice.Vec{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}, {Z: 2}, {Z: -2}}
	for i := 0; i < box.NumSites(); i++ {
		s := box.GetIndex(i)
		if !s.IsAtom() {
			continue
		}
		v := box.SiteAt(i)
		for _, d := range lattice.NN1 {
			o := box.Get(v.Add(d))
			if o.IsAtom() {
				total += float64(0.5 * p.E1[s][o])
			}
		}
		for _, d := range shell2 {
			o := box.Get(v.Add(d))
			if o.IsAtom() {
				total += float64(0.5 * p.E2[s][o])
			}
		}
	}
	return total
}

// UnmixingEnergy returns 2·ε¹_FeCu − ε¹_FeFe − ε¹_CuCu, positive for
// phase-separating (precipitating) systems.
func (p Params) UnmixingEnergy() float64 {
	return 2*p.E1[lattice.Fe][lattice.Cu] - p.E1[lattice.Fe][lattice.Fe] - p.E1[lattice.Cu][lattice.Cu]
}

var _ kmc.Model = (*Evaluator)(nil)

// String summarises the parameter set.
func (p Params) String() string {
	return fmt.Sprintf("bondcount{FeFe=%.2f CuCu=%.2f FeCu=%.2f (1NN), unmixing=%.3f eV}",
		p.E1[lattice.Fe][lattice.Fe], p.E1[lattice.Cu][lattice.Cu], p.E1[lattice.Fe][lattice.Cu],
		p.UnmixingEnergy())
}
