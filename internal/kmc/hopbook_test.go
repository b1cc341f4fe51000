package kmc

import (
	"fmt"
	"testing"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// hopBox is one box of the hop-bookkeeping tests: its cells, Cu fraction,
// and vacancies — placed ones first (pairs, and centres on the corner,
// edges and faces of the periodic box), then random ones up to the count.
type hopBox struct {
	cells     [3]int
	cu        float64
	vacancies int
	placed    []lattice.Vec
	seed      uint64
}

func (hb hopBox) String() string {
	return fmt.Sprintf("%dx%dx%d cells, %d vacancies", hb.cells[0], hb.cells[1], hb.cells[2], hb.vacancies)
}

func (hb hopBox) build(tb *encoding.Tables) *lattice.Box {
	box := lattice.NewBox(hb.cells[0], hb.cells[1], hb.cells[2], tb.A)
	r := rng.New(hb.seed)
	lattice.FillRandomAlloy(box, hb.cu, 0, r)
	for _, v := range hb.placed {
		box.Set(v, lattice.Vacancy)
	}
	for _, _, vac := box.Count(); vac < hb.vacancies; _, _, vac = box.Count() {
		box.Types()[r.Intn(box.NumSites())] = lattice.Vacancy
	}
	return box
}

// boundaryVacancies places a 1NN pair across the box corner, a 2NN pair
// across a face, and single vacancies on an edge, a face and the far
// corner cell of a box with the given periods (half-units).
func boundaryVacancies(px, py, pz int) []lattice.Vec {
	return []lattice.Vec{
		{X: 0, Y: 0, Z: 0}, {X: px - 1, Y: py - 1, Z: pz - 1}, // 1NN through the corner
		{X: 0, Y: 6, Z: 8}, {X: px - 2, Y: 6, Z: 8}, // 2NN through the x face
		{X: 0, Y: 0, Z: 10},                       // edge
		{X: 7, Y: py - 1, Z: 5},                   // y face
		{X: px - 2, Y: py - 2, Z: pz - 2},         // far corner cell
		{X: 9, Y: 9, Z: 9}, {X: 10, Y: 10, Z: 10}, // 1NN pair in the bulk
	}
}

func hopBoxes() []hopBox {
	return []hopBox{
		{cells: [3]int{10, 10, 10}, cu: 0.3, vacancies: 40, placed: boundaryVacancies(20, 20, 20), seed: 61},
		{cells: [3]int{12, 12, 12}, cu: 0.05, vacancies: 12, placed: boundaryVacancies(24, 24, 24), seed: 62},
		{cells: [3]int{24, 24, 24}, cu: 0.0134, vacancies: 1, placed: []lattice.Vec{{X: 47, Y: 47, Z: 47}}, seed: 63},
		{cells: [3]int{10, 13, 16}, cu: 0.5, vacancies: 25, placed: boundaryVacancies(20, 26, 32), seed: 64},
	}
}

// hashModel prices a vacancy system by a hash of its whole VET, so that
// any wrong byte anywhere in a cached table changes the rates and, within
// a few hops, the trajectory and the refresh counts — at a fiftieth of
// the cost of a potential, which these bookkeeping tests do not need.
// Energies lie within ±0.2 eV; a hop into another vacancy is closed.
type hashModel struct{ tb *encoding.Tables }

func (m hashModel) Tables() *encoding.Tables { return m.tb }

func (m hashModel) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	h := uint64(14695981039346656037) // FNV-1a
	for _, s := range vet {
		h = (h ^ uint64(s)) * 1099511628211
	}
	for k, j := range m.tb.NN1Index {
		valid[k] = vet[j].IsAtom()
		final[k] = 0.4*float64(h>>(8*k)&0xff)/255 - 0.2
	}
	return 0, final, valid
}

// TestHopBookkeepingProperty: on boxes wide enough for translation (so no
// hop fills a whole table), after every one of 2000 hops each cached VET —
// the hopper's, translated through the shift table with its fringe read
// from the lattice, and every neighbour's, patched through the centre set
// — equals a fresh generic FillVET, and the centre set tracks exactly the
// vacancies of the lattice.
func TestHopBookkeepingProperty(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	for _, hb := range hopBoxes() {
		t.Run(hb.String(), func(t *testing.T) {
			box := hb.build(tb)
			e := NewEngine(box, hashModel{tb}, 1000, rng.New(hb.seed+100), Options{})
			if e.cache.walk || e.NumVacancies() != hb.vacancies {
				t.Fatalf("walk = %v, %d vacancies tracked", e.cache.walk, e.NumVacancies())
			}
			fresh := tb.NewVET()
			for hop := 0; hop < 2000; hop++ {
				if _, ok := e.Step(1e300); !ok {
					t.Fatalf("no event possible at hop %d", hop)
				}
				e.TotalRate() // what the next Step does first
				for slot, s := range e.cache.Systems {
					if got, ok := e.cache.SlotAt(s.Centre); !ok || got != slot || box.Get(s.Centre) != lattice.Vacancy {
						t.Fatalf("hop %d: slot %d centred at %v: centre set says (%d, %v), lattice holds %v",
							hop, slot, s.Centre, got, ok, box.Get(s.Centre))
					}
					tb.FillVET(fresh, s.Centre, box.Get)
					for j := range fresh {
						if s.VET[j] != fresh[j] {
							t.Fatalf("hop %d: cached VET of slot %d (centre %v) differs from the lattice at entry %d (%v vs %v)",
								hop, slot, s.Centre, j, s.VET[j], fresh[j])
						}
					}
				}
			}
			if want := int64(hb.vacancies); e.cache.walks != want {
				t.Fatalf("%d full-table fills, want the %d initial ones only", e.cache.walks, want)
			}
		})
	}
}

// TestWalkOnlyDifferential runs the engine beside one whose cache is forced
// onto the lattice walk (the path a box no wider than the table takes)
// from the same box and seed: every event and the final Stats must
// agree to the digit. The 8³ box is aliased, so there both engines walk;
// the dense box is the ledger's 3e-3 deck.
func TestWalkOnlyDifferential(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	cases := []struct {
		hb      hopBox
		hops    int
		aliased bool
	}{
		{hb: hopBox{cells: [3]int{8, 8, 8}, cu: 0.2, vacancies: 12, placed: boundaryVacancies(16, 16, 16), seed: 71}, hops: 2000, aliased: true},
		{hb: hopBoxes()[0], hops: 2000},
		{hb: hopBoxes()[2], hops: 2000},
		{hb: hopBox{cells: [3]int{64, 64, 64}, cu: 0.0134, vacancies: 1573, seed: 72}, hops: 2000},
	}
	for _, tc := range cases {
		t.Run(tc.hb.String(), func(t *testing.T) {
			boxA := tc.hb.build(tb)
			boxB := boxA.Clone()
			a := NewEngine(boxA, hashModel{tb}, units.ReactorTemperature, rng.New(tc.hb.seed+100), Options{})
			b := NewEngine(boxB, hashModel{tb}, units.ReactorTemperature, rng.New(tc.hb.seed+100), Options{})
			if a.cache.walk != tc.aliased {
				t.Fatalf("engine chose walk = %v", a.cache.walk)
			}
			b.cache.walk = true
			for hop := 0; hop < tc.hops; hop++ {
				evA, okA := a.Step(1e300)
				evB, okB := b.Step(1e300)
				if !okA || evA != evB || okA != okB {
					t.Fatalf("hop %d: %+v (%v) vs walk-only %+v (%v)", hop, evA, okA, evB, okB)
				}
			}
			a.TotalRate()
			b.TotalRate()
			if a.Stats() != b.Stats() || a.Time() != b.Time() || !boxA.Equal(boxB) {
				t.Fatalf("Stats %+v at t=%v vs walk-only %+v at t=%v", a.Stats(), a.Time(), b.Stats(), b.Time())
			}
			if !tc.aliased && (a.cache.walks != int64(tc.hb.vacancies) || b.cache.walks != int64(tc.hb.vacancies+tc.hops)) {
				t.Fatalf("%d full-table fills beside %d walk-only, want %d and %d",
					a.cache.walks, b.cache.walks, tc.hb.vacancies, tc.hb.vacancies+tc.hops)
			}
		})
	}
}
