// Package openkmc implements the cache-all baseline engine that TensorKMC
// is measured against (Secs. 2.4, 3.2, 3.3 and Table 1 of the paper).
//
// OpenKMC follows molecular-dynamics conventions: it stores per-atom
// properties for every site of the domain and keeps them updated during
// evolution. Concretely this engine allocates, for the whole box:
//
//   - T:      per-site half-unit coordinates (the paper's T array),
//   - POS_ID: a dense coordinate→index table over all half-unit cells,
//     half of which are wasted on non-site parities (Fig. 5),
//   - E_V:    per-atom pair-energy sums,
//   - E_R:    per-atom electron densities,
//
// with per-atom energies E(i) = ½·E_V[i] + F(E_R[i]) (Eq. 7). These
// arrays grow linearly with the simulation size — the memory wall that
// motivates TensorKMC's triple encoding and vacancy cache.
//
// The engine is an *independent computational path* from internal/kmc: it
// never touches CET/NET/VET and reads energies from its stored arrays.
// Run with the same seed and potential, it must reproduce the TensorKMC
// engine's trajectory event for event — the Fig. 8 validation.
package openkmc

import (
	"fmt"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// neighborOffset is one precomputed neighbour displacement with its
// distance (Å).
type neighborOffset struct {
	d lattice.Vec
	r float64
}

// Engine is the cache-all baseline AKMC engine.
type Engine struct {
	box  *lattice.Box
	pot  *eam.Potential
	temp float64
	rnd  *rng.Stream

	offsets []neighborOffset

	// The OpenKMC-style per-site arrays.
	t     [][3]int32 // site coordinates
	posID []int32    // dense (2Nx)(2Ny)(2Nz) coordinate table
	eV    []float64  // pair-energy sums
	eR    []float64  // electron densities
	// neigh stores every site's Newton half neighbour list (MD
	// heritage: OpenKMC keeps LAMMPS-style lists for all atoms, one
	// entry per pair). Entry i*nHalf+halfSlot[k] is the index of site
	// i's neighbour at the k-th positive offset; negative-offset
	// neighbours are resolved through POS_ID on demand. Even halved,
	// this array dominates the baseline's memory footprint — the bulk
	// of the paper's 0.70 kB/atom.
	neigh    []int32
	halfSlot []int // offset k → stored slot, or -1 for negative offsets
	nHalf    int

	vacs  []lattice.Vec // slot order matches the TensorKMC engine's
	rates [][8]float64
	total []float64

	time  float64
	steps int64
}

// NewEngine allocates the cache-all arrays and initialises per-atom
// properties for the whole box — the O(N) startup cost TensorKMC avoids.
func NewEngine(box *lattice.Box, pot *eam.Potential, rcut, temperatureK float64, r *rng.Stream) *Engine {
	e := &Engine{box: box, pot: pot, temp: temperatureK, rnd: r}
	n2 := lattice.HalfUnitsForCutoff(rcut, box.A)
	for _, d := range lattice.OffsetsWithin(n2) {
		e.offsets = append(e.offsets, neighborOffset{d: d, r: d.Dist(box.A)})
	}

	// Classify offsets into stored (lexicographically positive) and
	// POS_ID-resolved halves.
	e.halfSlot = make([]int, len(e.offsets))
	for k, o := range e.offsets {
		d := o.d
		if d.X > 0 || (d.X == 0 && (d.Y > 0 || (d.Y == 0 && d.Z > 0))) {
			e.halfSlot[k] = e.nHalf
			e.nHalf++
		} else {
			e.halfSlot[k] = -1
		}
	}

	n := box.NumSites()
	e.t = make([][3]int32, n)
	e.eV = make([]float64, n)
	e.eR = make([]float64, n)
	e.posID = make([]int32, 8*box.Nx*box.Ny*box.Nz)
	for i := range e.posID {
		e.posID[i] = -1
	}
	for i := 0; i < n; i++ {
		v := box.SiteAt(i)
		e.t[i] = [3]int32{int32(v.X), int32(v.Y), int32(v.Z)}
		e.posID[e.cell(v)] = int32(i)
	}
	// Build the per-atom half neighbour lists through POS_ID, then the
	// per-atom property arrays — the O(N) cache-all startup TensorKMC
	// avoids.
	e.neigh = make([]int32, n*e.nHalf)
	for i := 0; i < n; i++ {
		v := box.SiteAt(i)
		base := i * e.nHalf
		for k, o := range e.offsets {
			if slot := e.halfSlot[k]; slot >= 0 {
				e.neigh[base+slot] = int32(e.index(v.Add(o.d)))
			}
		}
	}
	for i := 0; i < n; i++ {
		e.recomputeSite(box.SiteAt(i))
	}

	e.vacs = lattice.Vacancies(box)
	e.rates = make([][8]float64, len(e.vacs))
	e.total = make([]float64, len(e.vacs))
	return e
}

// cell maps half-unit coordinates to the dense POS_ID cell index.
func (e *Engine) cell(v lattice.Vec) int {
	v = e.box.Wrap(v)
	return (v.Z*2*e.box.Ny+v.Y)*2*e.box.Nx + v.X
}

// index resolves coordinates through POS_ID — the lookup path Sec. 3.3
// replaces with direct computation.
func (e *Engine) index(v lattice.Vec) int {
	id := e.posID[e.cell(v)]
	if id < 0 {
		panic(fmt.Sprintf("openkmc: POS_ID miss at %v", v))
	}
	return int(id)
}

// recomputeSite rebuilds the stored E_V and E_R entries of the site at v
// from the current lattice.
func (e *Engine) recomputeSite(v lattice.Vec) {
	i := e.index(v)
	s := e.box.GetIndex(i)
	var ev, er float64
	if s.IsAtom() {
		base := i * e.nHalf
		for k, o := range e.offsets {
			var nbIdx int
			if slot := e.halfSlot[k]; slot >= 0 {
				nbIdx = int(e.neigh[base+slot])
			} else {
				nbIdx = e.index(v.Add(o.d))
			}
			nb := e.box.GetIndex(nbIdx)
			if !nb.IsAtom() {
				continue
			}
			ev += e.pot.Pair(s, nb, o.r)
			er += e.pot.Density(nb, o.r)
		}
	}
	e.eV[i], e.eR[i] = ev, er
}

// siteEnergy reads the stored per-atom energy: Eq. (7).
func (e *Engine) siteEnergy(i int) float64 {
	if !e.box.GetIndex(i).IsAtom() {
		return 0
	}
	return 0.5*e.eV[i] + e.pot.Embed(e.eR[i])
}

// affectedSites returns the set of site indices whose stored properties
// can change when the occupancies of v and t change: both sites plus all
// their neighbours (deduplicated).
func (e *Engine) affectedSites(v, t lattice.Vec) []int {
	seen := map[int]bool{}
	var out []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	add(e.index(v))
	add(e.index(t))
	for _, o := range e.offsets {
		add(e.index(v.Add(o.d)))
		add(e.index(t.Add(o.d)))
	}
	return out
}

// hopDeltaE computes E_f − E_i for exchanging the vacancy at v with the
// atom at t, by recomputing affected per-atom properties from a
// tentatively swapped lattice.
func (e *Engine) hopDeltaE(v, t lattice.Vec) float64 {
	affected := e.affectedSites(v, t)
	var before float64
	for _, i := range affected {
		before += e.siteEnergy(i)
	}
	mover := e.box.Get(t)
	e.box.Set(v, mover)
	e.box.Set(t, lattice.Vacancy)
	var after float64
	for _, i := range affected {
		after += e.freshSiteEnergy(i)
	}
	e.box.Set(v, lattice.Vacancy)
	e.box.Set(t, mover)
	return after - before
}

// freshSiteEnergy computes a site's energy directly from the lattice
// without consulting the stored arrays (used on tentative states).
func (e *Engine) freshSiteEnergy(i int) float64 {
	s := e.box.GetIndex(i)
	if !s.IsAtom() {
		return 0
	}
	v := lattice.Vec{X: int(e.t[i][0]), Y: int(e.t[i][1]), Z: int(e.t[i][2])}
	var ev, er float64
	base := i * e.nHalf
	for k, o := range e.offsets {
		var nbIdx int
		if slot := e.halfSlot[k]; slot >= 0 {
			nbIdx = int(e.neigh[base+slot])
		} else {
			nbIdx = e.index(v.Add(o.d))
		}
		nb := e.box.GetIndex(nbIdx)
		if !nb.IsAtom() {
			continue
		}
		ev += e.pot.Pair(s, nb, o.r)
		er += e.pot.Density(nb, o.r)
	}
	return 0.5*ev + e.pot.Embed(er)
}

// refreshRates recomputes every vacancy's hop propensities (the cache-all
// engine has no per-vacancy staleness tracking).
func (e *Engine) refreshRates() {
	for slot, v := range e.vacs {
		var total float64
		for k := 0; k < 8; k++ {
			t := e.box.Wrap(v.Add(lattice.NN1[k]))
			mover := e.box.Get(t)
			if !mover.IsAtom() {
				e.rates[slot][k] = 0
				continue
			}
			dE := e.hopDeltaE(v, t)
			ea := units.MigrationEnergy(mover.EA0(), dE)
			r := units.ArrheniusRate(ea, e.temp)
			e.rates[slot][k] = r
			total += r
		}
		e.total[slot] = total
	}
}

// Step executes one KMC event with the same draw order as the TensorKMC
// engine: (1) vacancy, (2) direction, (3) residence time. Semantics of
// the time limit match kmc.Engine.Step.
func (e *Engine) Step(timeLimit float64) (kmc.Event, bool) {
	e.refreshRates()
	var grand float64
	for _, t := range e.total {
		grand += t
	}
	if grand <= 0 {
		return kmc.Event{}, false
	}
	target := e.rnd.Float64() * grand
	slot := len(e.vacs) - 1
	var acc float64
	for i, t := range e.total {
		acc += t
		if target < acc {
			slot = i
			break
		}
	}
	k := 7
	dirTarget := e.rnd.Float64() * e.total[slot]
	acc = 0
	for i := 0; i < 8; i++ {
		acc += e.rates[slot][i]
		if dirTarget < acc {
			k = i
			break
		}
	}
	dt := e.rnd.ExpDeltaT(grand)
	if e.time+dt > timeLimit {
		e.time = timeLimit
		return kmc.Event{}, false
	}
	e.time += dt

	from := e.vacs[slot]
	to := e.box.Wrap(from.Add(lattice.NN1[k]))
	mover := e.box.Get(to)
	e.box.Set(from, mover)
	e.box.Set(to, lattice.Vacancy)
	e.vacs[slot] = to
	// Cache-all maintenance: update stored properties of all affected
	// sites.
	for _, i := range e.affectedSites(from, to) {
		v := lattice.Vec{X: int(e.t[i][0]), Y: int(e.t[i][1]), Z: int(e.t[i][2])}
		e.recomputeSite(v)
	}
	e.steps++
	return kmc.Event{Slot: slot, Direction: k, From: from, To: to, Mover: mover, DeltaT: dt}, true
}

// MemoryBreakdown itemises the cache-all arrays in bytes, the Table 1
// quantities.
type MemoryBreakdown struct {
	T       int
	PosID   int
	EV      int
	ER      int
	Neigh   int
	Lattice int
}

// Total returns the summed footprint.
func (m MemoryBreakdown) Total() int {
	return m.T + m.PosID + m.EV + m.ER + m.Neigh + m.Lattice
}

// Memory reports the engine's per-array footprint.
func (e *Engine) Memory() MemoryBreakdown {
	return MemoryBreakdown{
		T:       len(e.t) * 12,
		PosID:   len(e.posID) * 4,
		EV:      len(e.eV) * 8,
		ER:      len(e.eR) * 8,
		Neigh:   len(e.neigh) * 4,
		Lattice: e.box.NumSites(),
	}
}
