package kmc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/telemetry"
)

// Sites is the lattice a Cache reads vacancy systems from: *lattice.Box
// for the serial engine, *lattice.Domain (local + ghost sites) for a
// sublattice rank. Neighbourhood writes the storage index of centre+rel[i]
// into idx[i]; Types is the species array those indices address. One
// indirect call then serves a whole table or fringe, not one per site.
type Sites interface {
	Neighbourhood(centre lattice.Vec, rel []lattice.Vec, idx []int)
	Types() []lattice.Species
}

// System is one cached vacancy system: the paper's vacancy-cache entry
// (Sec. 3.2) holding the VET and the current hop propensities.
type System struct {
	Centre lattice.Vec // canonical
	VET    encoding.VET
	Rates  [8]float64
	DeltaE [8]float64
	Total  float64
	Filled bool // VET reflects the lattice
	Dirty  bool // rates need recomputation
}

// Direction returns the hop direction whose cumulative-rate interval holds
// u·Total for a uniform draw u ∈ [0, 1): the second draw of an event.
func (s *System) Direction(u float64) int {
	target := u * s.Total
	var acc float64
	for k, r := range s.Rates {
		acc += r
		if target < acc {
			return k
		}
	}
	return 7
}

// Stats counts cache behaviour for the ablation benches.
type Stats struct {
	Refills   int64 // VET rebuilds for a new or moved centre, by translation or lattice walk
	Patches   int64 // in-cache VET updates (no lattice access)
	Refreshes int64 // propensity recomputations priced by the model (model calls)
	MemoHits  int64 // propensity recomputations whose energies the memo held (no model call)
}

// Cache is the vacancy cache both engines run on: the slot table of
// vacancy systems, the centre cell list that finds them, and the hop
// bookkeeping that keeps every filled VET equal to the lattice. Selection
// is the engine's own (a sum tree serially, a sector scan on a rank); the
// cache only says which systems are dirty and what their rates are.
//
// The engine changes the lattice first and then tells the cache: Patch
// for every changed site, Hop for the system that moved. A hop translates
// the hopper's VET through Tables.HopVET and reads only the fringe; a
// changed site is written into each covering VET at the entry
// Centres.Covering names. Where the box is no wider than the table
// (Centres.Aliased), a VET can hold two images of one site and both are
// done by walking the whole table instead.
type Cache struct {
	Systems []*System
	Stats   Stats

	tb      *encoding.Tables
	model   Model
	temp    float64
	sites   Sites
	centres *encoding.Centres // tracked centres → slot

	// walk makes hop bookkeeping walk the whole table — refill the hopper's
	// VET, ask every site around a changed one for a tracked centre — and
	// is set where translation is not exact (Centres.Aliased), never by a
	// tunable; walks counts the full-table fills made.
	walk  bool
	walks int64

	nbr   []int            // scratch: storage index of centre+rel[i], one table
	cover []encoding.Cover // scratch: the systems covering a changed site
	spare encoding.VET     // scratch: the buffer a hopper's VET is translated into
	one   [1]int           // scratch: Refresh's batch of one
	out   []hopEnergies    // scratch: RefreshBatch's model outputs
	keys  []uint64         // scratch: RefreshBatch's memo hash of each system
	batch batch            // scratch: RefreshBatch's work shared with helpers

	memo memo // the last memoSize VETs the model priced, and its answers

	encode, eval *telemetry.Phase // full fills; memo lookups and model calls (nil: untimed)
}

// NewCache returns an empty cache over sites whose systems are tracked in
// centres (empty, spanning the window the engine owns), priced by model
// at the given temperature. encode and eval, if non-nil, time full VET
// fills and each batch's memo lookups and model calls in RefreshBatch.
func NewCache(sites Sites, centres *encoding.Centres, model Model, temperatureK float64, encode, eval *telemetry.Phase) *Cache {
	tb := model.Tables()
	return &Cache{tb: tb, model: model, temp: temperatureK, sites: sites, centres: centres,
		walk: centres.Aliased(), nbr: make([]int, tb.NAll), spare: tb.NewVET(), encode: encode, eval: eval}
}

// Add tracks a new vacancy system at centre in the next slot, unfilled.
func (c *Cache) Add(centre lattice.Vec) {
	c.Systems = append(c.Systems, &System{Centre: centre, VET: c.tb.NewVET(), Dirty: true})
	c.centres.Put(len(c.Systems)-1, centre)
}

// Remove stops tracking the system in slot; the last system takes its slot.
func (c *Cache) Remove(slot int) {
	last := len(c.Systems) - 1
	c.centres.Drop(slot)
	if slot != last {
		c.centres.Drop(last)
		c.Systems[slot] = c.Systems[last]
		c.centres.Put(slot, c.Systems[slot].Centre)
	}
	c.Systems = c.Systems[:last]
}

// SlotAt returns the slot of the system centred at site (any periodic
// image), if there is one.
func (c *Cache) SlotAt(site lattice.Vec) (int, bool) { return c.centres.SlotAt(site) }

// Reorder puts the systems into the given slot order, which must name
// every tracked centre once, and marks them all dirty.
func (c *Cache) Reorder(order []lattice.Vec) error {
	if len(order) != len(c.Systems) {
		return fmt.Errorf("kmc: vacancy order has %d centres, engine tracks %d", len(order), len(c.Systems))
	}
	reordered := make([]*System, len(order))
	seen := make([]bool, len(order))
	for i, v := range order {
		old, ok := c.centres.SlotAt(v)
		if !ok {
			return fmt.Errorf("kmc: vacancy order names %v, which is not a tracked vacancy", v)
		}
		if seen[old] {
			return fmt.Errorf("kmc: vacancy order repeats centre %v", v)
		}
		seen[old] = true
		reordered[i] = c.Systems[old]
	}
	for slot := range c.Systems {
		c.centres.Drop(slot)
	}
	c.Systems = reordered
	for slot, s := range c.Systems {
		c.centres.Put(slot, s.Centre)
		s.Dirty = true
	}
	return nil
}

// Stale marks every system unfilled and dirty and empties the memo, so
// that the next Refresh of each reads its whole table from the lattice and
// asks the model: the no-cache ablation.
func (c *Cache) Stale() {
	for _, s := range c.Systems {
		s.Filled, s.Dirty = false, true
	}
	c.memo.reset()
}

// Refresh recomputes the propensities of the system in slot, first
// filling its VET from the lattice if it is unfilled: a batch of one.
func (c *Cache) Refresh(slot int) {
	c.one[0] = slot
	c.RefreshBatch(c.one[:], nil)
}

// RefreshBatch recomputes the propensities of the systems in slots, which
// must be distinct. Unfilled VETs are filled first, one after another:
// fill uses the cache's one neighbour scratch. Each VET is then looked up
// in the memo on the calling goroutine; a hit takes the energies the model
// returned for the same VET, bit for bit. The 1+8 hop energies of the
// misses are evaluated by the cache's own model on the calling goroutine
// and by each helper model on a goroutine of its own — the paper's CPEs
// beside their MPE. Every model is a pure function of one VET and every
// system's energies are written by exactly one goroutine, so neither the
// memo nor the helpers change a bit. The rates, Dirty flags and Stats are
// committed afterwards in slot order on the calling goroutine, and the
// misses enter the memo in slot order, so which systems hit depends on
// the calls made and never on the helpers.
//
// The helpers run at the same time as the cache's model and each other,
// so each must be a model of its own or one safe for concurrent calls
// (an evalserve.Server, a fleet client). A panic in any model is
// re-raised on the calling goroutine once every helper has stopped: the
// one from the earliest slot.
func (c *Cache) RefreshBatch(slots []int, helpers []Model) {
	for _, slot := range slots {
		if s := c.Systems[slot]; !s.Filled {
			sp := c.encode.Start()
			c.fill(s)
			sp.EndMsg("")
			c.Stats.Refills++
		}
	}
	sp := c.eval.Start()
	if cap(c.out) < len(slots) {
		c.out = make([]hopEnergies, len(slots))
		c.keys = make([]uint64, len(slots))
		c.batch.todo = make([]int, 0, len(slots))
	}
	out, keys, todo := c.out[:len(slots)], c.keys[:len(slots)], c.batch.todo[:0]
	for i, slot := range slots {
		vet := c.Systems[slot].VET
		keys[i] = memoHash(vet)
		if !c.memo.get(keys[i], vet, &out[i]) {
			todo = append(todo, i)
		}
	}
	if len(helpers) == 0 || len(todo) < 2 {
		for _, i := range todo {
			out[i].eval(c.model, c.Systems[slots[i]].VET)
		}
	} else {
		c.evaluate(slots, todo, helpers[:min(len(helpers), len(todo)-1)])
	}
	for i, slot := range slots {
		s, e := c.Systems[slot], &out[i]
		s.Rates, s.Total = Rates(s.VET, c.tb, e.initial, e.final, e.valid, c.temp)
		for k := range s.DeltaE {
			s.DeltaE[k] = 0
			if e.valid[k] {
				s.DeltaE[k] = e.final[k] - e.initial
			}
		}
		s.Dirty = false
	}
	for _, i := range todo {
		c.memo.put(keys[i], c.Systems[slots[i]].VET, &out[i])
	}
	sp.EndMsg("")
	c.Stats.Refreshes += int64(len(todo))
	c.Stats.MemoHits += int64(len(slots) - len(todo))
}

// hopEnergies is one system's model output between evaluation and commit.
type hopEnergies struct {
	initial float64
	final   [8]float64
	valid   [8]bool
}

func (e *hopEnergies) eval(m Model, vet encoding.VET) {
	e.initial, e.final, e.valid = m.HopEnergies(vet)
}

// batch is the state a RefreshBatch shares with its helpers, kept in the
// cache so that a batch allocates nothing but its goroutines.
type batch struct {
	slots []int
	todo  []int        // the positions in slots the model evaluates, ascending
	next  atomic.Int64 // index into todo of the next unclaimed system
	wg    sync.WaitGroup
	fails []failure // per worker: the panic it stopped on, if any
}

type failure struct {
	at int // index into todo of the system being evaluated
	p  any
}

// evaluate fills c.out[i] for slots[i], for each position i in todo, with
// the cache's own model and the helpers working together, each taking the
// next unclaimed system.
func (c *Cache) evaluate(slots, todo []int, helpers []Model) {
	b := &c.batch
	b.slots, b.todo = slots, todo
	b.next.Store(0)
	if cap(b.fails) <= len(helpers) {
		b.fails = make([]failure, len(helpers)+1)
	}
	b.fails = b.fails[:len(helpers)+1]
	b.wg.Add(len(helpers))
	for h, m := range helpers {
		go c.help(m, h+1)
	}
	c.work(c.model, 0)
	b.wg.Wait()
	// Systems are claimed in slot order, so every system before the
	// earliest failed one was evaluated: the serial path's first panic.
	first := failure{at: len(todo)}
	for _, f := range b.fails {
		if f.p != nil && f.at < first.at {
			first = f
		}
	}
	clear(b.fails) // ready for the next batch; holds no panic value
	if first.p != nil {
		panic(first.p)
	}
}

func (c *Cache) help(m Model, worker int) {
	defer c.batch.wg.Done()
	c.work(m, worker)
}

// work evaluates systems with m until none is left. If m panics, work
// stops and records the panic and the system it struck.
func (c *Cache) work(m Model, worker int) {
	b := &c.batch
	at := 0
	defer func() {
		if p := recover(); p != nil {
			b.fails[worker] = failure{at: at, p: p}
		}
	}()
	for at = int(b.next.Add(1) - 1); at < len(b.todo); at = int(b.next.Add(1) - 1) {
		i := b.todo[at]
		c.out[i].eval(m, c.Systems[b.slots[i]].VET)
	}
}

// memoSize is the number of VETs a cache's memo holds: the window in which
// the dilute decks revisit a state (ROADMAP item 16's census).
const memoSize = 64

// memo is a cache's exact record of the last memoSize VETs its model
// priced and what the model returned for each, replaced first in, first
// out. Every model is a pure function of one VET, so an entry whose VET
// equals a system's — compared whole, never by hash alone — holds the
// energies the model would return for that system, bit for bit. The zero
// memo is empty; its storage is allocated once, whole, by the first put,
// so that building a cache does not pay for it and no later step
// allocates.
type memo struct {
	hash []uint64      // memoHash of each entry's VET
	out  []hopEnergies // the model's answer for each entry's VET
	vets encoding.VET  // entry j's VET at [j·NAll, (j+1)·NAll)
	n    int           // entries held
	next int           // the entry the next put replaces
}

// memoEntryBytes is the fixed part of one memo entry beside its VET: the
// hash and the 1+8 energies and 8 validity flags.
const memoEntryBytes = 8 + 8 + 8*8 + 8

// MemoBytes returns the size in bytes of one cache's memo under the given
// tables once it holds anything: memoSize VETs of NAll species, each with
// its hash and model answer.
func MemoBytes(tb *encoding.Tables) int { return memoSize * (tb.NAll + memoEntryBytes) }

// memoHash hashes a VET's own bytes, eight sites per step: FNV-1a over
// little-endian 64-bit words, a short last word zero-extended. Each step
// is a bijection of the running hash, so two VETs that differ within one
// word never collide. It allocates nothing.
func memoHash(vet encoding.VET) uint64 {
	h := uint64(14695981039346656037)
	for ; len(vet) >= 8; vet = vet[8:] {
		h ^= uint64(vet[0]) | uint64(vet[1])<<8 | uint64(vet[2])<<16 | uint64(vet[3])<<24 |
			uint64(vet[4])<<32 | uint64(vet[5])<<40 | uint64(vet[6])<<48 | uint64(vet[7])<<56
		h *= 1099511628211
	}
	if len(vet) > 0 {
		var w uint64
		for i, s := range vet {
			w |= uint64(s) << (8 * i)
		}
		h ^= w
		h *= 1099511628211
	}
	return h
}

// get copies into e the model's answer for vet, whose memoHash is h, and
// reports whether the memo held one.
func (m *memo) get(h uint64, vet encoding.VET, e *hopEnergies) bool {
	n := len(vet)
	for j, hj := range m.hash[:m.n] {
		if hj == h && string(m.vets[j*n:(j+1)*n]) == string(vet) {
			*e = m.out[j]
			return true
		}
	}
	return false
}

// put records e as the model's answer for vet, whose memoHash is h, in
// place of the oldest entry once the memo is full.
func (m *memo) put(h uint64, vet encoding.VET, e *hopEnergies) {
	if m.vets == nil {
		m.hash, m.out, m.vets = make([]uint64, memoSize), make([]hopEnergies, memoSize), make(encoding.VET, memoSize*len(vet))
	}
	j, n := m.next, len(vet)
	m.hash[j], m.out[j] = h, *e
	copy(m.vets[j*n:(j+1)*n], vet)
	m.next = (j + 1) % memoSize
	m.n = max(m.n, j+1)
}

// reset forgets every entry.
func (m *memo) reset() { m.n, m.next = 0, 0 }

// fill reads the whole table around the system's centre from the lattice.
func (c *Cache) fill(s *System) {
	c.sites.Neighbourhood(s.Centre, c.tb.CET, c.nbr)
	types := c.sites.Types()
	for i, site := range c.nbr {
		s.VET[i] = types[site]
	}
	s.Filled = true
	c.walks++
}

// Hop moves the system in slot, whose vacancy went by NN1[k] to the
// canonical site to, and rebuilds its VET: translated, with only the
// fringe read from the lattice, or filled whole on an aliased box.
func (c *Cache) Hop(slot, k int, to lattice.Vec) {
	s := c.Systems[slot]
	c.centres.Drop(slot)
	c.centres.Put(slot, to)
	s.Centre = to
	s.Dirty = true
	c.Stats.Refills++
	if c.walk || !s.Filled {
		c.fill(s)
		return
	}
	c.tb.HopVET(c.spare, s.VET, k)
	s.VET, c.spare = c.spare, s.VET
	fringe := c.tb.Fringe[k]
	c.sites.Neighbourhood(to, c.tb.FringeCET[k], c.nbr[:len(fringe)])
	types := c.sites.Types()
	for n, i := range fringe {
		s.VET[i] = types[c.nbr[n]]
	}
}

// Patch records that the site (any periodic image) now holds species in
// every system whose table covers it, except the one in slot skip (the
// hopper, which Hop rebuilds; −1 for none). Such systems become dirty; a
// filled VET is written in place.
func (c *Cache) Patch(site lattice.Vec, species lattice.Species, skip int) {
	if c.walk {
		// A system covers the site iff its centre lies at site+CET[i] (the
		// table is symmetric), and then holds it at entry Mirror[i] — once
		// per periodic image it holds.
		for i, rel := range c.tb.CET {
			if slot, ok := c.centres.SlotAt(site.Add(rel)); ok && slot != skip {
				c.patch(slot, c.tb.Mirror[i], species)
			}
		}
		return
	}
	c.cover = c.centres.Covering(site, c.cover)
	for _, cv := range c.cover {
		if cv.Slot != skip {
			c.patch(cv.Slot, cv.Entry, species)
		}
	}
}

func (c *Cache) patch(slot int, entry int32, species lattice.Species) {
	s := c.Systems[slot]
	s.Dirty = true
	if s.Filled {
		s.VET[entry] = species
		c.Stats.Patches++
	}
}
