// Package dataset generates and labels the NNP training structures.
//
// The paper trains on 540 Fe–Cu structures of 60–64 atoms labelled with
// FHI-aims DFT energies and forces (Sec. 4.1.1). DFT is unavailable in
// this reproduction, so structures are labelled by a synthetic oracle
// (the analytic EAM potential) instead; the sampling protocol mirrors the
// paper's: small bcc supercells, random Cu substitution, optional
// vacancies, and thermal-scale random displacements.
package dataset

import (
	"fmt"
	"math"

	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
)

// Structure is one labelled training configuration: a periodic
// orthorhombic cell with per-atom species and reference labels.
type Structure struct {
	Pos    [][3]float64
	Spec   []lattice.Species
	Cell   [3]float64
	Energy float64      // reference total energy (eV)
	Forces [][3]float64 // reference forces (eV/Å)
}

// NumAtoms returns the number of atoms.
func (s *Structure) NumAtoms() int { return len(s.Pos) }

// CountElements returns the per-element atom counts.
func (s *Structure) CountElements() [lattice.NumElements]int {
	var n [lattice.NumElements]int
	for _, sp := range s.Spec {
		if sp.IsAtom() {
			n[sp]++
		}
	}
	return n
}

// Oracle supplies reference labels — in the paper, DFT; here, the
// analytic EAM potential.
type Oracle interface {
	StructureEnergy(pos [][3]float64, spec []lattice.Species, cell [3]float64) float64
	StructureForces(pos [][3]float64, spec []lattice.Species, cell [3]float64) [][3]float64
}

// Config controls structure sampling.
type Config struct {
	// A is the lattice constant (Å).
	A float64
	// CuFracMax bounds the random per-structure Cu fraction; each
	// structure draws its own concentration in [0, CuFracMax].
	CuFracMax float64
	// MaxVacancies caps the random vacancy count per structure (0–max).
	MaxVacancies int
	// Each structure draws a Gaussian positional-noise amplitude (Å)
	// uniformly from [DisplacementMin, Displacement], mimicking thermal
	// snapshots at a spread of effective temperatures; amplitude
	// diversity is what lets an energy-only fit constrain forces.
	Displacement    float64
	DisplacementMin float64
}

// DefaultConfig mirrors the paper's sampling: 60–64-atom supercells,
// dilute-to-moderate Cu, up to two vacancies, small displacements.
func DefaultConfig() Config {
	return Config{A: 2.87, CuFracMax: 0.25, MaxVacancies: 2, Displacement: 0.12, DisplacementMin: 0.01}
}

// cellShapes lists supercell dimensions with 30–32 bcc cells (60–64
// atoms), matching the paper's structure sizes.
var cellShapes = [][3]int{
	{2, 4, 4}, {4, 2, 4}, {4, 4, 2}, // 32 cells, 64 atoms
	{2, 3, 5}, {3, 2, 5}, {5, 3, 2}, // 30 cells, 60 atoms
	{1, 5, 6}, {5, 6, 1}, // 30 cells
}

// Generate samples n labelled structures with the given oracle.
func Generate(n int, oracle Oracle, cfg Config, r *rng.Stream) []Structure {
	if n <= 0 {
		panic(fmt.Sprintf("dataset: invalid count %d", n))
	}
	out := make([]Structure, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, generateOne(oracle, cfg, r))
	}
	return out
}

func generateOne(oracle Oracle, cfg Config, r *rng.Stream) Structure {
	shape := cellShapes[r.Intn(len(cellShapes))]
	a := cfg.A
	var s Structure
	s.Cell = [3]float64{a * float64(shape[0]), a * float64(shape[1]), a * float64(shape[2])}
	for z := 0; z < shape[2]; z++ {
		for y := 0; y < shape[1]; y++ {
			for x := 0; x < shape[0]; x++ {
				s.Pos = append(s.Pos, [3]float64{a * float64(x), a * float64(y), a * float64(z)})
				s.Pos = append(s.Pos, [3]float64{a * (float64(x) + 0.5), a * (float64(y) + 0.5), a * (float64(z) + 0.5)})
				s.Spec = append(s.Spec, lattice.Fe, lattice.Fe)
			}
		}
	}
	// Random Cu substitution at a per-structure concentration.
	cuFrac := cfg.CuFracMax * r.Float64()
	for i := range s.Spec {
		if r.Float64() < cuFrac {
			s.Spec[i] = lattice.Cu
		}
	}
	// Vacancies: remove atoms outright (a vacancy is the absence of an
	// atom in the continuous representation).
	nVac := 0
	if cfg.MaxVacancies > 0 {
		nVac = r.Intn(cfg.MaxVacancies + 1)
	}
	for v := 0; v < nVac && len(s.Pos) > 1; v++ {
		i := r.Intn(len(s.Pos))
		s.Pos = append(s.Pos[:i], s.Pos[i+1:]...)
		s.Spec = append(s.Spec[:i], s.Spec[i+1:]...)
	}
	// Thermal displacements at a per-structure amplitude.
	amp := cfg.DisplacementMin + float64((cfg.Displacement-cfg.DisplacementMin)*r.Float64())
	for i := range s.Pos {
		for ax := 0; ax < 3; ax++ {
			s.Pos[i][ax] += float64(amp * r.NormFloat64())
		}
	}
	s.Energy = oracle.StructureEnergy(s.Pos, s.Spec, s.Cell)
	s.Forces = oracle.StructureForces(s.Pos, s.Spec, s.Cell)
	return s
}

// Split partitions structures into nTrain random training structures and
// the remainder as the test set, matching the paper's 400/140 split.
func Split(structs []Structure, nTrain int, r *rng.Stream) (train, test []Structure) {
	if nTrain < 0 || nTrain > len(structs) {
		panic(fmt.Sprintf("dataset: invalid split %d of %d", nTrain, len(structs)))
	}
	perm := make([]int, len(structs))
	r.Perm(perm)
	for i, p := range perm {
		if i < nTrain {
			train = append(train, structs[p])
		} else {
			test = append(test, structs[p])
		}
	}
	return train, test
}

// MAE returns the mean absolute error between two series.
func MAE(pred, ref []float64) float64 {
	if len(pred) != len(ref) {
		panic("dataset: MAE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - ref[i])
	}
	return s / float64(len(pred))
}

// RMSE returns the root-mean-square error between two series.
func RMSE(pred, ref []float64) float64 {
	if len(pred) != len(ref) {
		panic("dataset: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - ref[i]
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(pred)))
}

// R2 returns the coefficient of determination of pred against ref, the
// metric of the paper's Fig. 7 parity plots.
func R2(pred, ref []float64) float64 {
	if len(pred) != len(ref) {
		panic("dataset: R2 length mismatch")
	}
	if len(ref) == 0 {
		return 0
	}
	var mean float64
	for _, v := range ref {
		mean += v
	}
	mean /= float64(len(ref))
	var ssRes, ssTot float64
	for i := range ref {
		d := pred[i] - ref[i]
		ssRes += float64(d * d)
		t := ref[i] - mean
		ssTot += float64(t * t)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
