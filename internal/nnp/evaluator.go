package nnp

import (
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
)

// LatticeEvaluator binds a trained Potential to a set of triple-encoding
// tables, providing the region/hop energy interface the KMC engine
// consumes. It owns a reusable scratch, so one evaluator serves one
// goroutine.
type LatticeEvaluator struct {
	Pot *Potential
	Tb  *encoding.Tables
	Tab *feature.Table
	s   *Scratch
}

// NewLatticeEvaluator precomputes the feature TABLE for the tables'
// discrete distances and allocates scratch space.
func NewLatticeEvaluator(pot *Potential, tb *encoding.Tables) *LatticeEvaluator {
	return &LatticeEvaluator{
		Pot: pot,
		Tb:  tb,
		Tab: feature.NewTable(pot.Desc, tb.Distances),
		s:   pot.NewScratch(tb),
	}
}

// Tables returns the encoding tables (kmc.Model interface).
func (ev *LatticeEvaluator) Tables() *encoding.Tables { return ev.Tb }

// HopEnergies evaluates the 1+8 states of a vacancy system
// (kmc.Model interface).
func (ev *LatticeEvaluator) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	initial, final, valid, _ = ev.Pot.HopEnergies(ev.Tb, ev.Tab, vet, ev.s)
	return initial, final, valid
}

// RegionEnergy evaluates the jumping-region energy of one state.
func (ev *LatticeEvaluator) RegionEnergy(vet encoding.VET) float64 {
	return ev.Pot.RegionEnergy(ev.Tb, ev.Tab, vet, ev.s)
}
