package kmc

import (
	"errors"
	"math"
	"testing"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// TestCacheOnDomain drives a Cache over a *lattice.Domain the way a
// sublattice rank does — local hops (one that leaves the local region is a
// Remove), vacancies adopted from a neighbour (Add), tracked vacancies
// consumed remotely (Remove) and ghost updates — on a domain whose ghosts
// were filled from a global box, with y undivided so that ghost sites are
// images of local ones. After every operation each tracked centre is a
// local vacancy in its own slot, every local vacancy is tracked, and every
// filled VET equals a FillVET from the domain. A twin cache forced onto
// the lattice walk sees the same operations over the same domain and must
// agree on every slot, flag, byte and Stats counter.
func TestCacheOnDomain(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	global := lattice.NewBox(12, 11, 10, tb.A)
	r := rng.New(91)
	lattice.FillRandomAlloy(global, 0.2, 0.03, r)
	dom := lattice.NewDomain(lattice.Vec{X: 12, Y: 0, Z: 8}, lattice.Vec{X: 12, Y: 22, Z: 12}, tb.MaxExtent, tb.A)
	var locals, ghosts []lattice.Vec
	dom.ForEachLocal(func(v lattice.Vec, idx int) {
		dom.Types()[idx] = global.Get(v)
		locals = append(locals, v)
	})
	dom.ForEachGhost(func(v lattice.Vec, idx int) {
		dom.Types()[idx] = global.Get(v)
		if !dom.IsLocal(global.Wrap(v)) {
			ghosts = append(ghosts, v)
		}
	})
	newCache := func() *Cache {
		c := NewCache(dom, tb.NewCentres(global, dom.Origin, dom.Size), hashModel{tb}, 1000, nil, nil)
		for _, v := range locals {
			if dom.Get(v) == lattice.Vacancy {
				c.Add(v)
			}
		}
		return c
	}
	a, walked := newCache(), newCache()
	walked.walk = true
	if a.walk || len(a.Systems) < 10 {
		t.Fatalf("walk = %v with %d systems", a.walk, len(a.Systems))
	}
	both := func(f func(c *Cache)) { f(a); f(walked) }
	refreshDirty := func(c *Cache) {
		for slot, s := range c.Systems {
			if s.Dirty {
				c.Refresh(slot)
			}
		}
	}
	// set writes the species at every image of the canonical site that
	// the extended region holds.
	set := func(canon lattice.Vec, s lattice.Species) {
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					v := canon.Add(lattice.Vec{X: dx * 2 * global.Nx, Y: dy * 2 * global.Ny, Z: dz * 2 * global.Nz})
					if dom.Contains(v) {
						dom.Set(v, s)
					}
				}
			}
		}
	}

	fresh := tb.NewVET()
	var left, adopted int
	for op := 0; op < 1200; op++ {
		switch u := r.Float64(); {
		case u < 0.8 && len(a.Systems) > 0: // a local hop
			slot, k := r.Intn(len(a.Systems)), r.Intn(8)
			from := a.Systems[slot].Centre
			mover := dom.Get(from.Add(lattice.NN1[k]))
			if !mover.IsAtom() {
				continue
			}
			if r.Intn(10) != 0 && a.Systems[slot].Dirty {
				both(func(c *Cache) { c.Refresh(slot) }) // as an engine selects it
			}
			to := global.Wrap(from.Add(lattice.NN1[k]))
			set(from, mover)
			set(to, lattice.Vacancy)
			if !dom.IsLocal(to) {
				left++
			}
			both(func(c *Cache) {
				c.Patch(from, mover, slot)
				c.Patch(to, lattice.Vacancy, slot)
				if dom.IsLocal(to) {
					c.Hop(slot, k, to)
				} else {
					c.Remove(slot)
				}
			})
		case u < 0.87: // a vacancy adopted from a neighbour
			v := locals[r.Intn(len(locals))]
			if !dom.Get(v).IsAtom() {
				continue
			}
			adopted++
			set(v, lattice.Vacancy)
			both(func(c *Cache) {
				c.Add(v)
				c.Patch(v, lattice.Vacancy, -1)
			})
		case u < 0.9 && len(a.Systems) > 0: // a tracked vacancy consumed remotely
			slot := r.Intn(len(a.Systems))
			v := a.Systems[slot].Centre
			set(v, lattice.Fe)
			both(func(c *Cache) {
				c.Remove(slot)
				c.Patch(v, lattice.Fe, -1)
			})
		default: // a ghost update from a neighbour
			v := global.Wrap(ghosts[r.Intn(len(ghosts))])
			s := []lattice.Species{lattice.Fe, lattice.Cu, lattice.Vacancy}[r.Intn(3)]
			set(v, s)
			both(func(c *Cache) { c.Patch(v, s, -1) })
		}
		if r.Intn(2) == 0 {
			both(refreshDirty)
		}

		vacancies := 0
		for _, v := range locals {
			if dom.Get(v) == lattice.Vacancy {
				vacancies++
			}
		}
		if len(a.Systems) != vacancies || len(walked.Systems) != vacancies {
			t.Fatalf("op %d: %d and %d (walk-only) systems for %d local vacancies", op, len(a.Systems), len(walked.Systems), vacancies)
		}
		for slot, s := range a.Systems {
			w := walked.Systems[slot]
			if got, ok := a.SlotAt(s.Centre); !ok || got != slot || !dom.IsLocal(s.Centre) || dom.Get(s.Centre) != lattice.Vacancy {
				t.Fatalf("op %d: slot %d at %v: centre set says (%d, %v), domain holds %v", op, slot, s.Centre, got, ok, dom.Get(s.Centre))
			}
			if w.Centre != s.Centre || w.Filled != s.Filled || w.Dirty != s.Dirty || w.Total != s.Total {
				t.Fatalf("op %d slot %d: %v filled=%v dirty=%v total=%v vs walk-only %v filled=%v dirty=%v total=%v",
					op, slot, s.Centre, s.Filled, s.Dirty, s.Total, w.Centre, w.Filled, w.Dirty, w.Total)
			}
			if !s.Filled {
				continue
			}
			tb.FillVET(fresh, s.Centre, dom.Get)
			for j := range fresh {
				if s.VET[j] != fresh[j] || w.VET[j] != fresh[j] {
					t.Fatalf("op %d slot %d entry %d: cached %v, walk-only %v, domain %v", op, slot, j, s.VET[j], w.VET[j], fresh[j])
				}
			}
		}
	}
	both(refreshDirty)
	if a.Stats != walked.Stats || a.walks >= walked.walks {
		t.Fatalf("Stats %+v after %d full fills vs walk-only %+v after %d", a.Stats, a.walks, walked.Stats, walked.walks)
	}
	if left == 0 || adopted == 0 || a.Stats.Patches == 0 {
		t.Fatalf("%d hops left the region, %d vacancies adopted, %d patches: an operation went untested", left, adopted, a.Stats.Patches)
	}
}

// TestRefreshBatchMatchesRefresh: refreshing a batch of systems with 0, 1
// or 3 helper models leaves every system's rates, ΔE and total equal, bit
// for bit, to refreshing the same systems one at a time, and counts the
// same refills and refreshes — model calls plus memo hits. A batch looks
// every system up before it inserts any miss, so its split between the
// two may differ from one at a time, but not with the helper count. The
// box is dense in vacancies, once aliased by the table (8³) and once not
// (12³), and the batch mixes filled and unfilled systems; their old
// propensities are poisoned first, so a system the batch skipped cannot
// pass.
func TestRefreshBatchMatchesRefresh(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	pot := eam.New(eam.Default())
	model := func() Model { return eam.NewFastRegionEvaluator(pot, tb) }
	for _, cells := range []int{8, 12} {
		box := lattice.NewBox(cells, cells, cells, units.LatticeConstantFe)
		lattice.FillRandomAlloy(box, 0.2, 0.02, rng.New(uint64(cells)))
		// prepared returns a refreshed cache over the box and the batch:
		// two systems of every three, the first of them unfilled.
		prepared := func() (*Cache, []int) {
			c := NewCache(box, tb.NewCentres(box, lattice.Vec{}, lattice.Vec{X: 2 * cells, Y: 2 * cells, Z: 2 * cells}),
				model(), units.ReactorTemperature, nil, nil)
			for _, v := range lattice.Vacancies(box) {
				c.Add(v)
			}
			for slot := range c.Systems {
				c.Refresh(slot)
			}
			var batch []int
			for slot, s := range c.Systems {
				switch slot % 3 {
				case 0:
					s.Filled = false
				case 1:
				default:
					continue
				}
				s.Dirty, s.Total = true, -1
				for k := range s.Rates {
					s.Rates[k], s.DeltaE[k] = -1, -1
				}
				batch = append(batch, slot)
			}
			return c, batch
		}
		ref, batch := prepared()
		for _, slot := range batch {
			ref.Refresh(slot)
		}
		if ref.walk != (cells == 8) || len(batch) < 8 {
			t.Fatalf("%d³ cells: aliased = %v, batch of %d", cells, ref.walk, len(batch))
		}
		var serial Stats
		for _, n := range []int{0, 1, 3} {
			c, batch := prepared()
			helpers := make([]Model, n)
			for i := range helpers {
				helpers[i] = model()
			}
			c.RefreshBatch(batch, helpers)
			got, want := c.Stats, ref.Stats
			if got.Refills != want.Refills || got.Patches != want.Patches || got.Refreshes+got.MemoHits != want.Refreshes+want.MemoHits {
				t.Fatalf("%d³ cells, %d helpers: Stats %+v, one at a time %+v", cells, n, got, want)
			}
			if n == 0 {
				serial = got
			} else if got != serial {
				t.Fatalf("%d³ cells, %d helpers: Stats %+v, without helpers %+v", cells, n, got, serial)
			}
			for slot, s := range c.Systems {
				r := ref.Systems[slot]
				same := s.Dirty == r.Dirty && s.Filled == r.Filled && math.Float64bits(s.Total) == math.Float64bits(r.Total)
				for k := range s.Rates {
					same = same && math.Float64bits(s.Rates[k]) == math.Float64bits(r.Rates[k]) &&
						math.Float64bits(s.DeltaE[k]) == math.Float64bits(r.DeltaE[k])
				}
				if !same {
					t.Fatalf("%d³ cells, %d helpers, slot %d: %+v, one at a time %+v", cells, n, slot, *s, *r)
				}
			}
		}
	}
}

// panicModel panics with its value on every call.
type panicModel struct {
	Model
	v any
}

func (m panicModel) HopEnergies(encoding.VET) (float64, [8]float64, [8]bool) { panic(m.v) }

// TestRefreshBatchRaisesModelPanic: a model's panic, raised on a helper's
// goroutine or the caller's, reaches the caller of RefreshBatch, and
// leaves the systems dirty.
func TestRefreshBatchRaisesModelPanic(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	box := lattice.NewBox(10, 10, 10, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.1, 0.02, rng.New(5))
	failed := errors.New("model failed")
	bad := panicModel{hashModel{tb}, failed}
	c := NewCache(box, tb.NewCentres(box, lattice.Vec{}, lattice.Vec{X: 20, Y: 20, Z: 20}), bad, 1000, nil, nil)
	for _, v := range lattice.Vacancies(box) {
		c.Add(v)
	}
	slots := []int{0, 1, 2, 3, 4, 5}
	func() {
		defer func() {
			if p := recover(); p != failed {
				t.Fatalf("RefreshBatch raised %v, want %v", p, failed)
			}
		}()
		c.RefreshBatch(slots, []Model{bad, bad})
	}()
	for _, slot := range slots {
		if !c.Systems[slot].Dirty {
			t.Fatalf("slot %d is clean after a failed batch", slot)
		}
	}
}
