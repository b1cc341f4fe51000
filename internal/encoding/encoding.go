// Package encoding implements the triple-encoding tabulation (TET)
// algorithm of Sec. 3.1 of the TensorKMC paper: the foundation that lets a
// huge sparse simulation domain be reduced to small dense "vacancy
// systems".
//
// The three tables are:
//
//   - CET (coordinates encoding tabulation): the ordered relative
//     half-unit coordinates of every site in a vacancy system. Entry 0 is
//     the vacancy at the origin; entries [0, NRegion) form the jumping
//     region (all sites whose energy can change under any of the 8
//     candidate hops); entries [NRegion, NAll) are the outer sites that
//     act only as neighbours of region sites.
//   - NET (neighbour-list encoding tabulation): for each region site, the
//     CET indices and quantised distances of its N_local neighbours.
//   - VET (vacancy encoding tabulation): a per-vacancy-system vector of
//     atom types, one per CET entry — the only per-system mutable state.
//
// CET and NET depend only on the lattice constant and the cutoff radius
// and are shared by every vacancy system in a simulation (and across MPI
// ranks in the paper): New builds them once per (a, r_cut) per process,
// keeping the few most recent pairs, and hands every caller of a pair the
// same immutable Tables. Because all bcc sites
// are geometrically equivalent, translating CET to any vacancy position
// enumerates that vacancy's system.
package encoding

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"tensorkmc/internal/lattice"
)

// Neighbor is one NET entry: the CET index of a neighbouring site and the
// index of its quantised interatomic distance in Tables.Distances.
type Neighbor struct {
	ID        int32
	DistIndex uint16
}

// HopSite is one entry of Tables.HopSites: a region site whose neighbour
// tally changes under a hop, with the distance shells (indices into
// Tables.Distances, −1 beyond the cutoff) at which it sees the origin and
// the hop target. The hop moves one atom from the target to the origin, so
// the site gains a neighbour of the mover's element in shell ShellOrigin
// and loses one in shell ShellTarget.
type HopSite struct {
	Site        int32
	ShellOrigin int16
	ShellTarget int16
}

// Tables bundles the shared CET and NET tables for one (a, r_cut) pair.
// One Tables serves every simulation, rank, helper model and evaluation
// server of a process that asks New for that pair, on any goroutine, so it
// is immutable once New returns: nothing may write a field or an element
// of any of its slices.
type Tables struct {
	// A is the lattice constant (Å); Rcut the cutoff radius (Å);
	// Norm2Max the squared cutoff in half-units.
	A        float64
	Rcut     float64
	Norm2Max int

	// CET holds relative coordinates: [0] is the vacancy origin,
	// [1, NRegion) the rest of the jumping region, [NRegion, NAll) the
	// outer shell.
	CET []lattice.Vec

	// NLocal is the number of neighbours of a single site within Rcut
	// (112 at 6.5 Å); NRegion the jumping-region size (253 at 6.5 Å);
	// NOut the outer-shell size; NAll = NRegion + NOut.
	NLocal  int
	NRegion int
	NOut    int
	NAll    int

	// NET[i*NLocal : (i+1)*NLocal] are the neighbours of region site i.
	NET []Neighbor

	// Distances lists the distinct interatomic distances (Å) occurring
	// within the cutoff, ascending; NET entries refer into it. In AKMC
	// interatomic distances are discrete (Sec. 3.4), which is what makes
	// the feature TABLE possible.
	Distances []float64

	// NN1Index[k] is the CET index of the k-th first-nearest-neighbour
	// site (hop direction k); MaxExtent is the largest |coordinate|
	// appearing in CET, which lower-bounds usable box sizes and sets
	// the ghost width needed by the parallel decomposition.
	NN1Index  [8]int32
	MaxExtent int

	// Mirror[i] is the CET index of −CET[i]. The CET set is symmetric
	// under inversion (New checks it), so a site that sits at offset c
	// from a changed site sees that site at entry Mirror[i] of its own
	// VET — what a vacancy-cache patch that walks the table around the
	// changed site needs (Centres.Covering names the entry directly).
	Mirror []int32

	// HopSites[k] lists, site-ascending, the region sites other than the
	// origin and the target of hop direction k whose shell to the origin
	// differs from their shell to the target (142 of 253 at 6.5 Å). Every
	// other region site sees the swapped pair at equal distances — or not
	// at all — so its per-(element, shell) neighbour counts, and with them
	// its features and energy, are the same before and after the hop. Both
	// incremental evaluators (eam.FastRegionEvaluator, nnp.Potential.
	// HopEnergies) walk this table.
	HopSites [8][]HopSite

	// Shift[k][i] is the CET index of CET[i] + NN1[k], −1 where that
	// offset leaves the table; Fringe[k] lists, ascending, the entries
	// where it does (151 of 1181 at 6.5 Å, the same count for every
	// direction) and FringeCET[k] their offsets. A system whose vacancy
	// hops by NN1[k] sees at entry i what it saw at Shift[k][i], so its VET
	// is translated by one permuting copy (HopVET) and only the fringe is
	// read from the lattice — the fourth tabulation, beside CET, NET and
	// VET.
	Shift     [8][]int32
	Fringe    [8][]int32
	FringeCET [8][]lattice.Vec

	// grid holds the CET index of every offset of the cube
	// |x|, |y|, |z| ≤ MaxExtent, −1 where the offset is no CET entry: the
	// lookup behind IndexOf, and while build runs its scratch.
	grid []int32
}

// Extent returns the MaxExtent of the tables for lattice constant a (Å)
// and cutoff rcut (Å) without building them: a caller can refuse a box
// too small for the tables before paying for them, which for a tiny a or
// a huge rcut is most of the machine. The cutoff ball's largest
// coordinate r is the largest even x with x² within the squared cutoff
// (the offset (x, 0, 0)) or the largest odd x with x² + 2 within it
// ((x, 1, 1)); the region reaches r+1 and the outer shell 2r+1.
func Extent(a, rcut float64) int {
	n := lattice.HalfUnitsForCutoff(rcut, a)
	r := 0
	for x := 1; x*x <= n; x++ {
		if x%2 == 0 || x*x+2 <= n {
			r = x
		}
	}
	return 2*r + 1
}

// sharedPairs bounds the memo behind New: a long-lived process that is
// sent decks with free-float lattice constants and cutoffs (tkmc-ctl)
// keeps the tables of its most recent few pairs, not of every pair it
// ever saw. A run needs one pair, a test suite a handful.
const sharedPairs = 4

// shared holds the Tables of the sharedPairs (a, rcut) pairs New was most
// recently asked for, the most recent last. sharedMu serialises New,
// builds included, so concurrent first callers of a pair get one
// instance. An evicted instance stays valid for whoever holds it.
var (
	sharedMu sync.Mutex
	shared   []*Tables
)

// New returns the tables for lattice constant a (Å) and cutoff rcut (Å):
// built on the first call for the pair, the same immutable instance on
// later ones while the pair is among the sharedPairs most recently asked
// for. For the paper's a = 2.87 Å, rcut = 6.5 Å this yields
// NLocal = 112, NRegion = 253.
func New(a, rcut float64) *Tables {
	// Written so that NaN fails too: a NaN key never matches itself.
	if !(a > 0) || !(rcut > 0) {
		panic(fmt.Sprintf("encoding: invalid a=%v rcut=%v", a, rcut))
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	i := slices.IndexFunc(shared, func(t *Tables) bool { return t.A == a && t.Rcut == rcut })
	var t *Tables
	if i >= 0 {
		t = shared[i]
		shared = slices.Delete(shared, i, i+1)
	} else {
		t = build(a, rcut)
		if len(shared) == sharedPairs {
			shared = slices.Delete(shared, 0, 1)
		}
	}
	shared = append(shared, t)
	return t
}

// build constructs the tables for a and rcut.
func build(a, rcut float64) *Tables {
	t := &Tables{A: a, Rcut: rcut, Norm2Max: lattice.HalfUnitsForCutoff(rcut, a)}
	ball := lattice.OffsetsWithin(t.Norm2Max)
	t.NLocal = len(ball)
	t.MaxExtent = Extent(a, rcut)
	side := 2*t.MaxExtent + 1
	t.grid = make([]int32, side*side*side)
	const absent, marked = -1, -2
	for i := range t.grid {
		t.grid[i] = absent
	}
	// mark appends v to set unless an earlier call already saw it.
	mark := func(set []lattice.Vec, v lattice.Vec) []lattice.Vec {
		if g := &t.grid[t.gridIndex(v)]; *g == absent {
			*g = marked
			return append(set, v)
		}
		return set
	}

	// The jumping region is the union of the cutoff balls around the
	// centre and its eight 1NN sites (each ball includes its centre).
	var region, out []lattice.Vec
	for _, c := range append([]lattice.Vec{{}}, lattice.NN1[:]...) {
		region = mark(region, c)
		for _, off := range ball {
			region = mark(region, c.Add(off))
		}
	}
	// Outer shell: neighbours of region sites that are not themselves
	// in the region.
	for _, v := range region {
		for _, off := range ball {
			out = mark(out, v.Add(off))
		}
	}

	sortSites(region)
	sortSites(out)
	t.NRegion = len(region)
	t.NOut = len(out)
	t.NAll = t.NRegion + t.NOut
	t.CET = append(region, out...)
	for i, v := range t.CET {
		t.grid[t.gridIndex(v)] = int32(i)
	}
	if t.CET[0] != (lattice.Vec{}) {
		panic("encoding: CET[0] is not the origin")
	}
	for k, nn := range lattice.NN1 {
		t.NN1Index[k], _ = t.IndexOf(nn)
	}
	t.Mirror = make([]int32, t.NAll)
	for i, v := range t.CET {
		m, ok := t.IndexOf(lattice.Vec{X: -v.X, Y: -v.Y, Z: -v.Z})
		if !ok {
			panic(fmt.Sprintf("encoding: CET not symmetric: %v has no mirror entry", v))
		}
		t.Mirror[i] = m
	}
	for k, nn := range lattice.NN1 {
		t.Shift[k] = make([]int32, t.NAll)
		for i, v := range t.CET {
			j, ok := t.IndexOf(v.Add(nn))
			if !ok {
				j = -1
				t.Fringe[k] = append(t.Fringe[k], int32(i))
				t.FringeCET[k] = append(t.FringeCET[k], v)
			}
			t.Shift[k][i] = j
		}
	}

	// Distance quantisation table.
	n2Set := map[int]bool{}
	for _, off := range ball {
		n2Set[off.Norm2()] = true
	}
	n2s := make([]int, 0, len(n2Set))
	for n2 := range n2Set {
		n2s = append(n2s, n2)
	}
	sort.Ints(n2s)
	// shellOf maps a squared half-unit length to its index in Distances,
	// −1 where no site pair within the cutoff has that length.
	shellOf := make([]int16, t.Norm2Max+1)
	for n2 := range shellOf {
		shellOf[n2] = -1
	}
	for i, n2 := range n2s {
		t.Distances = append(t.Distances, 0.5*a*math.Sqrt(float64(n2)))
		shellOf[n2] = int16(i)
	}

	// NET: neighbours of every region site. By construction every
	// neighbour of a region site is in region ∪ out, so the lookup
	// always succeeds.
	t.NET = make([]Neighbor, 0, t.NRegion*t.NLocal)
	for _, v := range t.CET[:t.NRegion] {
		for _, off := range ball {
			n := v.Add(off)
			id, ok := t.IndexOf(n)
			if !ok {
				panic(fmt.Sprintf("encoding: neighbour %v of region site %v missing from CET", n, v))
			}
			t.NET = append(t.NET, Neighbor{ID: id, DistIndex: uint16(shellOf[off.Norm2()])})
		}
	}

	// Hop sites: the shell of a separation, −1 beyond the cutoff.
	shell := func(n2 int) int16 {
		if n2 > t.Norm2Max {
			return -1
		}
		return shellOf[n2]
	}
	for k, target := range lattice.NN1 {
		for j := 1; j < t.NRegion; j++ {
			v := t.CET[j]
			if v == target {
				continue
			}
			if so, st := shell(v.Norm2()), shell(v.Sub(target).Norm2()); so != st {
				t.HopSites[k] = append(t.HopSites[k], HopSite{Site: int32(j), ShellOrigin: so, ShellTarget: st})
			}
		}
	}
	return t
}

// sortSites orders sites by (|v|², X, Y, Z) so the table layout is
// deterministic; the origin (|v|² = 0) always sorts first.
func sortSites(sites []lattice.Vec) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if an, bn := a.Norm2(), b.Norm2(); an != bn {
			return an < bn
		}
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Neighbors returns the NET slice of region site i.
func (t *Tables) Neighbors(i int) []Neighbor {
	return t.NET[i*t.NLocal : (i+1)*t.NLocal]
}

// IndexOf returns the CET index of the given relative coordinate and
// whether it is part of the vacancy system.
func (t *Tables) IndexOf(v lattice.Vec) (int32, bool) {
	if abs(v.X) > t.MaxExtent || abs(v.Y) > t.MaxExtent || abs(v.Z) > t.MaxExtent {
		return 0, false
	}
	if id := t.grid[t.gridIndex(v)]; id >= 0 {
		return id, true
	}
	return 0, false
}

// gridIndex is the position in grid of an offset inside the MaxExtent cube.
func (t *Tables) gridIndex(v lattice.Vec) int {
	m, side := t.MaxExtent, 2*t.MaxExtent+1
	return ((v.Z+m)*side+v.Y+m)*side + v.X + m
}

// VET is the vacancy encoding tabulation: the atom type of each CET entry
// for one concrete vacancy system. VET[0] is the central vacancy.
type VET []lattice.Species

// NewVET allocates a VET sized for these tables.
func (t *Tables) NewVET() VET { return make(VET, t.NAll) }

// FillVET populates vet by translating CET to the given centre and
// querying site types through get (which must handle periodic wrapping).
// This is the only step that touches the global lattice array (Sec. 3.1).
func (t *Tables) FillVET(vet VET, center lattice.Vec, get func(lattice.Vec) lattice.Species) {
	if len(vet) != t.NAll {
		panic("encoding: VET length mismatch")
	}
	for i, rel := range t.CET {
		vet[i] = get(center.Add(rel))
	}
}

// ApplyHop swaps the central vacancy with its k-th first nearest
// neighbour in vet, realising the final state of hop direction k.
// Applying the same hop twice restores the initial state.
func (t *Tables) ApplyHop(vet VET, k int) {
	j := t.NN1Index[k]
	vet[0], vet[j] = vet[j], vet[0]
}

// HopVET translates the VET of a vacancy that hops in direction k: src,
// the system's VET before the hop, is brought up to date with the hop
// (ApplyHop) and every entry of the table around the new centre that the
// old table covers is copied into dst through Shift[k]. The entries
// Fringe[k] of dst are left for the caller to read from the lattice. It is
// exact only where a VET holds one image of each site: a periodic box no
// wider than the table on some axis repeats the hopped pair elsewhere in
// src, which ApplyHop does not see.
func (t *Tables) HopVET(dst, src VET, k int) {
	t.ApplyHop(src, k)
	for i, j := range t.Shift[k] {
		if j >= 0 {
			dst[i] = src[j]
		}
	}
}

// MemoryBytes reports the shared-table footprint (CET + NET + distances +
// mirror + hop sites + shift, fringe and offset grid): the memory a
// process pays once per (a, rcut) pair, regardless of simulation size.
func (t *Tables) MemoryBytes() int {
	n := len(t.CET)*3*8 + len(t.NET)*6 + len(t.Distances)*8 + len(t.Mirror)*4 + len(t.grid)*4
	for k, hs := range t.HopSites {
		n += len(hs)*8 + len(t.Shift[k])*4 + len(t.Fringe[k])*(4+3*8)
	}
	return n
}
