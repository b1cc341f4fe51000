// Package lattice implements the body-centred-cubic (bcc) lattice substrate
// of TensorKMC.
//
// Coordinate convention: sites are addressed with integer half-cell
// coordinates (x, y, z) in units of a/2, where a is the lattice constant.
// A triple is a valid bcc site if and only if x ≡ y ≡ z (mod 2): the
// even-parity sites form the cube-corner sublattice and the odd-parity
// sites the body-centre sublattice. In these units the eight first nearest
// neighbours (1NN) are the offsets (±1, ±1, ±1) and the six second nearest
// neighbours are (±2, 0, 0) and permutations. A vacancy hop exchanges a
// vacancy with one of its 8 first nearest neighbours (Sec. 2.1 of the
// paper).
//
// The package provides two storage layouts:
//
//   - Box: a fully periodic global domain used by the serial engines and
//     small validation runs. Sites are stored in one contiguous byte array
//     (one Species per site), indexed by a closed-form cell formula.
//   - Domain: a rectangular sub-domain with a ghost shell, as used by the
//     parallel decomposition. Storage follows the paper's Sec. 3.3: local
//     sites first, ghost sites after, with the index computed directly
//     from coordinates (Eq. 4) instead of through a POS_ID lookup array.
package lattice

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"tensorkmc/internal/units"
)

// Species is the occupant of a lattice site.
type Species uint8

const (
	// Fe and Cu are the two chemical elements of the paper's Fe–Cu
	// reactor-pressure-vessel alloy.
	Fe Species = iota
	Cu
	// Vacancy marks an unoccupied site. Vacancies carry no atomic
	// energy and do not contribute to neighbours' feature sums.
	Vacancy

	// NumElements is the number of real chemical elements (N_el in the
	// paper's feature dimensioning); Vacancy is not an element.
	NumElements = 2
)

// String implements fmt.Stringer.
func (s Species) String() string {
	switch s {
	case Fe:
		return "Fe"
	case Cu:
		return "Cu"
	case Vacancy:
		return "Vac"
	default:
		return fmt.Sprintf("Species(%d)", uint8(s))
	}
}

// IsAtom reports whether the species is a real atom (not a vacancy).
func (s Species) IsAtom() bool { return s == Fe || s == Cu }

// EA0 returns the reference activation energy E_a⁰ of Eq. (2) for a hop of
// this species into an adjacent vacancy, in eV. It panics for a vacancy,
// which cannot itself migrate into a vacancy.
func (s Species) EA0() float64 {
	switch s {
	case Fe:
		return units.EA0Fe
	case Cu:
		return units.EA0Cu
	}
	panic("lattice: EA0 of non-atom species " + s.String())
}

// Vec is an integer half-cell coordinate triple (site position or offset).
type Vec struct{ X, Y, Z int }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Norm2 returns the squared Euclidean length in half-cell units.
func (v Vec) Norm2() int { return v.X*v.X + v.Y*v.Y + v.Z*v.Z }

// IsSite reports whether v satisfies the bcc parity constraint
// x ≡ y ≡ z (mod 2).
func (v Vec) IsSite() bool {
	return (v.X^v.Y)&1 == 0 && (v.Y^v.Z)&1 == 0
}

// IsOffset reports whether v is a valid site-to-site displacement: all
// components even or all components odd.
func (v Vec) IsOffset() bool { return v.IsSite() }

// Dist returns the physical length of v in Å for lattice constant a.
func (v Vec) Dist(a float64) float64 {
	return 0.5 * a * math.Sqrt(float64(v.Norm2()))
}

// NN1 lists the eight first-nearest-neighbour offsets of the bcc lattice,
// the possible vacancy hop directions (X = 1..8 in Eq. (1)). The order is
// fixed and part of the trajectory-reproducibility contract.
var NN1 = [8]Vec{
	{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {1, -1, -1},
	{-1, 1, 1}, {-1, 1, -1}, {-1, -1, 1}, {-1, -1, -1},
}

// HalfUnitsForCutoff returns the squared cutoff radius in half-cell units
// for a physical cutoff rcut (Å) and lattice constant a (Å): offsets with
// Norm2 ≤ the returned value lie within rcut. It saturates at
// math.MaxInt32, a radius no box could hold, instead of overflowing.
func HalfUnitsForCutoff(rcut, a float64) int {
	h := 2 * rcut / a
	return int(math.Min(math.Floor(float64(h*h)+1e-9), math.MaxInt32))
}

// OffsetsWithin enumerates all nonzero valid offsets with squared
// half-unit length ≤ norm2Max, sorted by (Norm2, X, Y, Z) so the ordering
// is deterministic. This is the raw material of the CET table.
func OffsetsWithin(norm2Max int) []Vec {
	if norm2Max < 0 {
		return nil
	}
	r := int(math.Sqrt(float64(norm2Max)))
	var out []Vec
	for x := -r; x <= r; x++ {
		for y := -r; y <= r; y++ {
			for z := -r; z <= r; z++ {
				v := Vec{x, y, z}
				if n2 := v.Norm2(); n2 >= 1 && n2 <= norm2Max && v.IsOffset() {
					out = append(out, v)
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b Vec) int {
		return cmp.Or(cmp.Compare(a.Norm2(), b.Norm2()), cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y), cmp.Compare(a.Z, b.Z))
	})
	return out
}

// Box is a periodic bcc simulation domain of Nx×Ny×Nz unit cells holding
// 2·Nx·Ny·Nz sites. One byte per site.
type Box struct {
	Nx, Ny, Nz int
	// A is the lattice constant in Å.
	A     float64
	types []Species
}

// NewBox allocates an all-Fe periodic box. It panics on non-positive
// dimensions.
func NewBox(nx, ny, nz int, a float64) *Box {
	b := NewBoxGeometry(nx, ny, nz, a)
	b.types = make([]Species, b.NumSites())
	return b
}

// NewBoxGeometry returns a box that knows its shape but stores no
// species: Wrap, Index, SiteAt and Neighbourhood work, anything that
// reads or writes a site does not. A sublattice rank keeps one beside its
// Domain for canonical wrapping and indexing of the global lattice it
// holds only a slab of.
func NewBoxGeometry(nx, ny, nz int, a float64) *Box {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("lattice: invalid box %dx%dx%d", nx, ny, nz))
	}
	return &Box{Nx: nx, Ny: ny, Nz: nz, A: a}
}

// NumSites returns the number of lattice sites in the box.
func (b *Box) NumSites() int { return 2 * b.Nx * b.Ny * b.Nz }

// Wrap maps arbitrary half-unit coordinates into the canonical periodic
// range [0, 2N) per axis.
func (b *Box) Wrap(v Vec) Vec {
	return Vec{wrap(v.X, 2*b.Nx), wrap(v.Y, 2*b.Ny), wrap(v.Z, 2*b.Nz)}
}

// wrap reduces x into [0, period). Hop targets and neighbourhood sites
// are never more than one period outside the box, so those are settled
// by a comparison and an addition; only coordinates further out pay for
// the division.
func wrap(x, period int) int {
	if x < 0 {
		x += period
	} else if x >= period {
		x -= period
	}
	if uint(x) >= uint(period) {
		if x %= period; x < 0 {
			x += period
		}
	}
	return x
}

// Index returns the storage index of the site at v (any periodic image).
// It panics if v violates the bcc parity constraint.
func (b *Box) Index(v Vec) int {
	v = b.Wrap(v)
	if !v.IsSite() {
		panic(fmt.Sprintf("lattice: %v is not a bcc site", v))
	}
	// Cells are stored z-major, the corner site (even parity) before the
	// body centre: ((cz·Ny + cy)·Nx + cx)·2 + parity, and 2·cx + parity
	// is v.X itself.
	return ((v.Z>>1)*b.Ny+(v.Y>>1))*2*b.Nx + v.X
}

// Neighbourhood writes the storage index of the site at centre+rel[i]
// into idx[i], for every offset of rel. The centre (any periodic image)
// is wrapped once; each offset then costs three additions and at most
// three period corrections — no division, no per-site call. It is how
// the serial engine reads a vacancy system from the lattice: rel is the
// CET (or, after a hop, only the fringe of it that the translated table
// lacks), idx a scratch buffer of the same length.
//
// Every offset must satisfy the bcc parity rule and be no longer than
// the box period on any axis (kmc.NewEngine's size check guarantees that
// for a CET). Neighbourhood panics on an offset that breaks parity or
// lands more than one period outside the box, as Index does for a
// non-site.
func (b *Box) Neighbourhood(centre Vec, rel []Vec, idx []int) {
	if len(idx) != len(rel) {
		panic("lattice: Neighbourhood index buffer length mismatch")
	}
	c := b.Wrap(centre)
	if !c.IsSite() {
		panic(fmt.Sprintf("lattice: %v is not a bcc site", centre))
	}
	px, py, pz := 2*b.Nx, 2*b.Ny, 2*b.Nz
	ny, row := b.Ny, 2*b.Nx // a row of cells along x holds 2·Nx sites
	for i, r := range rel {
		x, y, z := c.X+r.X, c.Y+r.Y, c.Z+r.Z
		if x < 0 {
			x += px
		} else if x >= px {
			x -= px
		}
		if y < 0 {
			y += py
		} else if y >= py {
			y -= py
		}
		if z < 0 {
			z += pz
		} else if z >= pz {
			z -= pz
		}
		if uint(x) >= uint(px) || uint(y) >= uint(py) || uint(z) >= uint(pz) || ((x^y)|(y^z))&1 != 0 {
			b.badOffset(r)
		}
		idx[i] = ((z>>1)*ny+(y>>1))*row + x // Index's formula
	}
}

func (b *Box) badOffset(r Vec) {
	panic(fmt.Sprintf("lattice: %v is not a site offset within one period of a %dx%dx%d box", r, b.Nx, b.Ny, b.Nz))
}

// SiteAt is the inverse of Index: it returns the canonical coordinates of
// the site with the given storage index.
func (b *Box) SiteAt(index int) Vec {
	p := index & 1
	c := index >> 1
	cx := c % b.Nx
	c /= b.Nx
	cy := c % b.Ny
	cz := c / b.Ny
	return Vec{2*cx + p, 2*cy + p, 2*cz + p}
}

// Get returns the species at site v.
func (b *Box) Get(v Vec) Species { return b.types[b.Index(v)] }

// Set assigns the species at site v.
func (b *Box) Set(v Vec, s Species) { b.types[b.Index(v)] = s }

// GetIndex accesses a site by storage index directly.
func (b *Box) GetIndex(i int) Species { return b.types[i] }

// Types is the species array itself, in storage order.
func (b *Box) Types() []Species { return b.types }

// PositionOf returns the Cartesian position in Å of storage index i at
// lattice constant a.
func (b *Box) PositionOf(i int, a float64) [3]float64 {
	v := b.SiteAt(i)
	return [3]float64{0.5 * a * float64(v.X), 0.5 * a * float64(v.Y), 0.5 * a * float64(v.Z)}
}

// Count returns the number of sites of each species.
func (b *Box) Count() (fe, cu, vac int) {
	for _, s := range b.types {
		switch s {
		case Fe:
			fe++
		case Cu:
			cu++
		case Vacancy:
			vac++
		}
	}
	return
}

// Volume returns the physical box volume in m³.
func (b *Box) Volume() float64 {
	aM := b.A * 1e-10
	return float64(b.Nx) * float64(b.Ny) * float64(b.Nz) * aM * aM * aM
}

// Clone returns a deep copy of the box.
func (b *Box) Clone() *Box {
	nb := *b
	nb.types = make([]Species, len(b.types))
	copy(nb.types, b.types)
	return &nb
}

// Equal reports whether two boxes have identical geometry and occupancy.
func (b *Box) Equal(o *Box) bool {
	if b.Nx != o.Nx || b.Ny != o.Ny || b.Nz != o.Nz || len(b.types) != len(o.types) {
		return false
	}
	for i, s := range b.types {
		if o.types[i] != s {
			return false
		}
	}
	return true
}
