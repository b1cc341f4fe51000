package kmc

import (
	"math"
	"sync/atomic"
	"testing"
	"unsafe"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// sameEnergies reports whether two model answers agree bit for bit.
func sameEnergies(a, b hopEnergies) bool {
	same := math.Float64bits(a.initial) == math.Float64bits(b.initial) && a.valid == b.valid
	for k := range a.final {
		same = same && math.Float64bits(a.final[k]) == math.Float64bits(b.final[k])
	}
	return same
}

// TestMemoHitsAreExact: on multi-vacancy boxes, one of them aliased by the
// table, under the fast EAM evaluator and an NNP evaluator, every refresh
// the memo answers uses what a fresh HopEnergies on the system's VET
// returns, bit for bit. The test refreshes the dirty systems itself, one
// at a time in slot order as the engine does, and reprices each hit.
func TestMemoHitsAreExact(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	models := []struct {
		name  string
		model Model
		hops  int
	}{
		{"eam", eam.NewFastRegionEvaluator(eam.New(eam.Default()), tb), 600},
		{"nnp", nnp.NewLatticeEvaluator(nnp.NewPotential(desc, []int{desc.Dim(), 8, 1}, rng.New(9)), tb), 120},
	}
	boxes := []hopBox{
		{cells: [3]int{8, 8, 8}, cu: 0.2, vacancies: 12, placed: boundaryVacancies(16, 16, 16), seed: 71},
		hopBoxes()[0],
		hopBoxes()[1],
	}
	for _, m := range models {
		for _, hb := range boxes {
			t.Run(m.name+" "+hb.String(), func(t *testing.T) {
				e := NewEngine(hb.build(tb), m.model, units.ReactorTemperature, rng.New(hb.seed+200), Options{})
				c := e.cache
				var hits int
				for hop := 0; hop < m.hops; hop++ {
					if _, ok := e.Step(1e300); !ok {
						t.Fatalf("no event possible at hop %d", hop)
					}
					for slot, s := range c.Systems {
						if !s.Dirty {
							continue
						}
						before := c.Stats.MemoHits
						c.Refresh(slot)
						e.tree.Update(slot, s.Total)
						if c.Stats.MemoHits == before {
							continue
						}
						hits++
						var fresh hopEnergies
						fresh.eval(m.model, s.VET)
						if !sameEnergies(c.out[0], fresh) {
							t.Fatalf("hop %d slot %d: the memo answered %+v, the model returns %+v", hop, slot, c.out[0], fresh)
						}
					}
				}
				if st := e.Stats(); hits == 0 || st.MemoHits != int64(hits) || c.walk != (hb.cells[0] == 8) {
					t.Fatalf("%d memo hits checked, %+v, walk = %v: a path went untested", hits, st, c.walk)
				}
			})
		}
	}
}

// TestMemoNeverConfusesCollidingVETs: VETs filed under one hash are told
// apart by their bytes — each gets its own answer, and a third VET under
// that hash misses — and a memo that took memoSize later entries has
// forgotten them, first in, first out.
func TestMemoNeverConfusesCollidingVETs(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	var m memo
	vets := make([]encoding.VET, 3)
	for i := range vets {
		vets[i] = tb.NewVET()
	}
	vets[1][tb.NAll-1] = lattice.Cu // differs from vets[0] in its last, short word
	vets[2][0] = lattice.Cu
	if memoHash(vets[0]) == memoHash(vets[1]) || memoHash(vets[0]) == memoHash(vets[2]) {
		t.Fatal("VETs that differ in one word share a hash")
	}
	const forced = 42
	answers := []hopEnergies{{initial: 1}, {initial: 2}}
	for i, e := range answers {
		m.put(forced, vets[i], &e)
	}
	for i, want := range answers {
		var got hopEnergies
		if !m.get(forced, vets[i], &got) || got != want {
			t.Fatalf("VET %d under the shared hash: got %+v, want %+v", i, got, want)
		}
	}
	var got hopEnergies
	if m.get(forced, vets[2], &got) {
		t.Fatalf("an unseen VET under the shared hash hit: %+v", got)
	}
	for i := 0; i < memoSize-1; i++ {
		m.put(uint64(i), vets[2], &hopEnergies{})
	}
	if m.get(forced, vets[0], &got) || !m.get(forced, vets[1], &got) || got != answers[1] {
		t.Fatalf("after %d more entries the memo should hold VET 1 only", memoSize-1)
	}
	m.put(forced+1, vets[2], &hopEnergies{})
	if m.get(forced, vets[1], &got) {
		t.Fatalf("after %d more entries VET 1 is still held", memoSize)
	}
}

// countingModel counts the HopEnergies calls made on it.
type countingModel struct {
	Model
	calls *atomic.Int64
}

func (m countingModel) HopEnergies(vet encoding.VET) (float64, [8]float64, [8]bool) {
	m.calls.Add(1)
	return m.Model.HopEnergies(vet)
}

// TestDisableCacheAsksTheModel: the no-cache ablation prices every system
// with the model on every step — Stale empties the memo too, so nothing is
// answered from it.
func TestDisableCacheAsksTheModel(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	hb := hopBoxes()[1]
	var calls atomic.Int64
	e := NewEngine(hb.build(tb), countingModel{hashModel{tb}, &calls}, 1000, rng.New(hb.seed+300), Options{DisableCache: true})
	const hops = 300
	if n := e.RunSteps(hops); n != hops {
		t.Fatalf("%d hops, want %d", n, hops)
	}
	want := int64(hops * hb.vacancies)
	if st := e.Stats(); st.MemoHits != 0 || st.Refreshes != want || calls.Load() != want {
		t.Fatalf("%+v and %d model calls over %d hops of %d systems, want %d refreshes, all model calls",
			st, calls.Load(), hops, hb.vacancies, want)
	}
}

// TestMemoBytesMatchesCache: MemoBytes, which the memory model counts, is
// the size of the memo a cache holds once it has priced a system, and a
// cache that has priced nothing holds none of it.
func TestMemoBytesMatchesCache(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	box := lattice.NewBox(10, 10, 10, tb.A)
	lattice.FillRandomAlloy(box, 0.05, 0.002, rng.New(3))
	c := NewCache(box, tb.NewCentres(box, lattice.Vec{}, lattice.Vec{X: 20, Y: 20, Z: 20}), hashModel{tb}, 1000, nil, nil)
	c.Add(lattice.Vacancies(box)[0])
	held := func() int {
		return len(c.memo.vets) + len(c.memo.hash)*int(unsafe.Sizeof(c.memo.hash[0])) + len(c.memo.out)*int(unsafe.Sizeof(hopEnergies{}))
	}
	if held() != 0 {
		t.Fatalf("a new cache holds %d bytes of memo", held())
	}
	c.Refresh(0)
	if got := MemoBytes(tb); got != held() || len(c.memo.vets) != memoSize*tb.NAll || len(c.memo.hash) != memoSize || len(c.memo.out) != memoSize {
		t.Fatalf("MemoBytes = %d, the cache's memo holds %d bytes (%d of VETs)", got, held(), len(c.memo.vets))
	}
}
