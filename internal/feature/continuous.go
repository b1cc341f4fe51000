package feature

import (
	"math"

	"tensorkmc/internal/lattice"
)

// The continuous path evaluates the descriptor on off-lattice structures
// (the NNP training set): atoms at arbitrary positions in a periodic
// orthorhombic cell. Training supercells are small (60–64 atoms), often
// thinner than 2·r_cut, so plain minimum-image is insufficient: all
// periodic images within the cutoff are enumerated explicitly.

// PairTerm records one interacting (atom, neighbour-image) pair: the
// distance, the unit vector from J's image to I, and the two atoms'
// indices. Self-image pairs (I == J through a periodic image) are
// included.
type PairTerm struct {
	I, J int
	R    float64
	Unit [3]float64 // (pos_I − image(pos_J)) / R
}

// Pairs enumerates every interacting pair within the descriptor cutoff.
func (d *Descriptor) Pairs(pos [][3]float64, cell [3]float64) []PairTerm {
	return Pairs(pos, cell, d.Rcut)
}

// Pairs enumerates every interacting pair within rcut: each physical bond
// appears once (I ≤ J, with image shifts deduplicated by construction for
// I == J). It is shared by the NNP descriptor and the EAM oracle.
func Pairs(pos [][3]float64, cell [3]float64, rcut float64) []PairTerm {
	var out []PairTerm
	var shifts [][3]float64
	reach := [3]int{}
	for a := 0; a < 3; a++ {
		reach[a] = int(math.Ceil(rcut / cell[a]))
	}
	for ix := -reach[0]; ix <= reach[0]; ix++ {
		for iy := -reach[1]; iy <= reach[1]; iy++ {
			for iz := -reach[2]; iz <= reach[2]; iz++ {
				shifts = append(shifts, [3]float64{
					float64(ix) * cell[0], float64(iy) * cell[1], float64(iz) * cell[2]})
			}
		}
	}
	r2cut := rcut * rcut
	for i := 0; i < len(pos); i++ {
		for j := i; j < len(pos); j++ {
			for _, s := range shifts {
				if i == j {
					// A self-pair through the zero shift is the atom
					// itself; through shift s and −s it is the same
					// bond twice — keep only the lexicographically
					// positive shift.
					if s == ([3]float64{}) {
						continue
					}
					if s[0] < 0 || (s[0] == 0 && (s[1] < 0 || (s[1] == 0 && s[2] < 0))) {
						continue
					}
				}
				dx := pos[i][0] - pos[j][0] - s[0]
				dy := pos[i][1] - pos[j][1] - s[1]
				dz := pos[i][2] - pos[j][2] - s[2]
				r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
				if r2 > r2cut || r2 == 0 {
					continue
				}
				r := math.Sqrt(r2)
				out = append(out, PairTerm{I: i, J: j, R: r, Unit: [3]float64{dx / r, dy / r, dz / r}})
			}
		}
	}
	return out
}

// ComputeStructure returns the per-atom feature matrix (len(pos) × Dim)
// for a periodic structure. Vacancy "atoms" (if present in spec) neither
// receive features nor contribute to neighbours'.
func (d *Descriptor) ComputeStructure(pos [][3]float64, spec []lattice.Species, cell [3]float64) [][]float64 {
	feats := make([][]float64, len(pos))
	for i := range feats {
		feats[i] = make([]float64, d.Dim())
	}
	vals := make([]float64, d.NDim())
	for _, p := range d.Pairs(pos, cell) {
		d.Eval(p.R, vals)
		d.accumulate(feats, spec, p, vals)
	}
	return feats
}

func (d *Descriptor) accumulate(feats [][]float64, spec []lattice.Species, p PairTerm, vals []float64) {
	nd := d.NDim()
	if spec[p.I].IsAtom() && spec[p.J].IsAtom() {
		baseI := int(spec[p.J]) * nd // I sees J's element
		baseJ := int(spec[p.I]) * nd // J sees I's element
		for c, v := range vals {
			feats[p.I][baseI+c] += v
			feats[p.J][baseJ+c] += v
		}
	}
}

// ComputeForces converts per-atom feature gradients ∂E/∂f (as produced by
// the NNP backward pass) into atomic forces F_k = −∂E/∂x_k via the
// analytic radial derivative of the descriptor.
func (d *Descriptor) ComputeForces(pos [][3]float64, spec []lattice.Species, cell [3]float64, featGrad [][]float64) [][3]float64 {
	forces := make([][3]float64, len(pos))
	nd := d.NDim()
	val := make([]float64, nd)
	der := make([]float64, nd)
	for _, p := range d.Pairs(pos, cell) {
		if !spec[p.I].IsAtom() || !spec[p.J].IsAtom() {
			continue
		}
		d.EvalDeriv(p.R, val, der)
		baseI := int(spec[p.J]) * nd
		baseJ := int(spec[p.I]) * nd
		// dE/dr for this bond: both endpoint feature vectors depend on r.
		var dEdr float64
		for c := 0; c < nd; c++ {
			dEdr += float64(featGrad[p.I][baseI+c] * der[c])
			dEdr += float64(featGrad[p.J][baseJ+c] * der[c])
		}
		// r = |x_I − image(x_J)|, so ∂r/∂x_I = Unit and ∂r/∂x_J = −Unit.
		for a := 0; a < 3; a++ {
			forces[p.I][a] -= float64(dEdr * p.Unit[a])
			forces[p.J][a] += float64(dEdr * p.Unit[a])
		}
	}
	return forces
}
