package encoding

import (
	"testing"

	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func bothCutoffs(t *testing.T) []*Tables {
	t.Helper()
	return []*Tables{stdTables(t), New(units.LatticeConstantFe, units.CutoffShort)}
}

// cetMap is the map the offset grid replaced, rebuilt as the oracle.
func cetMap(tb *Tables) map[lattice.Vec]int32 {
	m := make(map[lattice.Vec]int32, tb.NAll)
	for i, v := range tb.CET {
		m[v] = int32(i)
	}
	return m
}

// TestShiftTable pins the fourth tabulation against the map oracle:
// Shift[k][i] is where CET[i]+NN1[k] sits, −1 exactly where it leaves the
// table; the origin shifts onto the hop target; a shift followed by the
// opposite one is the identity wherever both are defined; Fringe and
// FringeCET list the −1 entries in ascending order, 151 per direction at
// the paper's (2.87, 6.5).
func TestShiftTable(t *testing.T) {
	for _, tb := range bothCutoffs(t) {
		oracle := cetMap(tb)
		for k, nn := range lattice.NN1 {
			shift, back := tb.Shift[k], tb.Shift[7-k]
			if lattice.NN1[7-k] != (lattice.Vec{X: -nn.X, Y: -nn.Y, Z: -nn.Z}) {
				t.Fatalf("direction %d is not opposite to %d", 7-k, k)
			}
			if len(shift) != tb.NAll {
				t.Fatalf("Shift[%d] has %d entries, want NAll = %d", k, len(shift), tb.NAll)
			}
			if shift[0] != tb.NN1Index[k] {
				t.Fatalf("Shift[%d][0] = %d, want NN1Index = %d", k, shift[0], tb.NN1Index[k])
			}
			var fringe []int32
			for i, v := range tb.CET {
				want, inside := oracle[v.Add(nn)]
				if !inside {
					want = -1
					fringe = append(fringe, int32(i))
				}
				if shift[i] != want {
					t.Fatalf("Shift[%d][%d] = %d, want %d", k, i, shift[i], want)
				}
				if j := shift[i]; j >= 0 && back[j] != int32(i) {
					t.Fatalf("Shift[%d][Shift[%d][%d]] = %d, want %d", 7-k, k, i, back[j], i)
				}
			}
			if len(tb.Fringe[k]) != len(fringe) || len(tb.FringeCET[k]) != len(fringe) {
				t.Fatalf("direction %d: %d fringe entries, %d fringe offsets, want %d", k, len(tb.Fringe[k]), len(tb.FringeCET[k]), len(fringe))
			}
			for n, i := range fringe {
				if tb.Fringe[k][n] != i || tb.FringeCET[k][n] != tb.CET[i] {
					t.Fatalf("direction %d: fringe entry %d is %d at %v, want %d at %v", k, n, tb.Fringe[k][n], tb.FringeCET[k][n], i, tb.CET[i])
				}
			}
			if len(fringe) != len(tb.Fringe[0]) {
				t.Fatalf("direction %d has %d fringe entries, direction 0 has %d", k, len(fringe), len(tb.Fringe[0]))
			}
		}
	}
	if n := len(stdTables(t).Fringe[0]); n != 151 {
		t.Fatalf("%d fringe entries per direction at (2.87, 6.5), want 151", n)
	}
}

// TestHopVET: for every direction, translating the hopper's VET through
// Shift and reading the fringe from the lattice gives the VET a full
// FillVET builds around the new centre — in an alloy with other vacancies
// in the table, from a centre whose table wraps the box corner.
func TestHopVET(t *testing.T) {
	for _, tb := range bothCutoffs(t) {
		for k, nn := range lattice.NN1 {
			box := lattice.NewBox(10, 11, 12, tb.A)
			lattice.FillRandomAlloy(box, 0.3, 0.02, rng.New(uint64(50+k)))
			centre := lattice.Vec{X: 1, Y: 1, Z: 1}
			box.Set(centre, lattice.Vacancy)
			to := centre.Add(nn)
			if !box.Get(to).IsAtom() {
				box.Set(to, lattice.Cu)
			}
			src, dst, want := tb.NewVET(), tb.NewVET(), tb.NewVET()
			tb.FillVET(src, centre, box.Get)

			box.Set(centre, box.Get(to))
			box.Set(to, lattice.Vacancy)
			tb.HopVET(dst, src, k)
			for _, i := range tb.Fringe[k] {
				dst[i] = box.Get(to.Add(tb.CET[i]))
			}
			tb.FillVET(want, to, box.Get)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("direction %d: translated VET differs from the lattice at entry %d (%v vs %v)", k, i, dst[i], want[i])
				}
			}
		}
	}
}

// centresCase is a box and a window of it that tracked centres live in.
type centresCase struct {
	name         string
	nx, ny, nz   int
	origin, size lattice.Vec
}

func centresCases() []centresCase {
	whole := func(nx, ny, nz int) centresCase {
		return centresCase{nx: nx, ny: ny, nz: nz, size: lattice.Vec{X: 2 * nx, Y: 2 * ny, Z: 2 * nz}}
	}
	cases := []centresCase{whole(10, 10, 10), whole(10, 13, 17), whole(24, 24, 24), whole(32, 10, 12)}
	for i := range cases {
		cases[i].name = "whole box"
	}
	return append(cases,
		// Rank windows: half of one axis, and one octant.
		centresCase{name: "rank 2 1 1", nx: 16, ny: 10, nz: 12, origin: lattice.Vec{X: 16}, size: lattice.Vec{X: 16, Y: 20, Z: 24}},
		centresCase{name: "rank 2 2 2", nx: 12, ny: 12, nz: 14, origin: lattice.Vec{X: 12, Z: 14}, size: lattice.Vec{X: 12, Y: 12, Z: 14}},
	)
}

// randomSite draws a canonical bcc site of the cuboid [origin, origin+size).
func randomSite(r *rng.Stream, origin, size lattice.Vec) lattice.Vec {
	p := r.Intn(2)
	return lattice.Vec{
		X: origin.X + 2*r.Intn(size.X/2) + p,
		Y: origin.Y + 2*r.Intn(size.Y/2) + p,
		Z: origin.Z + 2*r.Intn(size.Z/2) + p,
	}
}

// TestCentres drives a centre set with random puts, drops and moves and
// checks SlotAt against a map and Covering against the walk it replaces:
// the pairs (slot, i) with a tracked centre at site+CET[i], reported at
// entry Mirror[i]. Sites are drawn from the whole box, so a windowed set
// is also asked about sites outside its window, and centres are packed
// densely enough to share cells and sit within each other's tables.
func TestCentres(t *testing.T) {
	tb := stdTables(t)
	for _, tc := range centresCases() {
		box := lattice.NewBoxGeometry(tc.nx, tc.ny, tc.nz, tb.A)
		whole := lattice.Vec{X: 2 * tc.nx, Y: 2 * tc.ny, Z: 2 * tc.nz}
		c := tb.NewCentres(box, tc.origin, tc.size)
		if c.Aliased() {
			t.Fatalf("%s %dx%dx%d: reported aliased", tc.name, tc.nx, tc.ny, tc.nz)
		}
		r := rng.New(uint64(tc.nx*tc.ny + tc.nz))
		slotAt := map[lattice.Vec]int{}
		var centres []lattice.Vec // by slot
		put := func(slot int) {
			v := randomSite(r, tc.origin, tc.size)
			for _, taken := slotAt[v]; taken; _, taken = slotAt[v] {
				v = randomSite(r, tc.origin, tc.size)
			}
			// Any periodic image names the same centre.
			c.Put(slot, v.Add(lattice.Vec{X: whole.X, Y: -whole.Y}))
			slotAt[v] = slot
			centres[slot] = v
		}
		var buf []Cover
		for round := 0; round < 300; round++ {
			switch {
			case len(centres) < 40 || r.Intn(3) == 0:
				centres = append(centres, lattice.Vec{})
				put(len(centres) - 1)
			case r.Intn(2) == 0:
				// Drop the last slot (what removing a system does after
				// moving the last one into the hole).
				last := len(centres) - 1
				c.Drop(last)
				delete(slotAt, centres[last])
				centres = centres[:last]
			default:
				slot := r.Intn(len(centres))
				c.Drop(slot)
				delete(slotAt, centres[slot])
				put(slot)
			}
			for n := 0; n < 20; n++ {
				site := randomSite(r, lattice.Vec{}, whole)
				if n%4 == 0 {
					site = centres[r.Intn(len(centres))]
				}
				got, ok := c.SlotAt(site.Sub(whole))
				if want, tracked := slotAt[site]; ok != tracked || (ok && got != want) {
					t.Fatalf("%s: SlotAt(%v) = (%d, %v), want (%d, %v)", tc.name, site, got, ok, want, tracked)
				}
				want := map[Cover]bool{}
				for i, rel := range tb.CET {
					if slot, tracked := slotAt[box.Wrap(site.Add(rel))]; tracked {
						want[Cover{Slot: slot, Entry: tb.Mirror[i]}] = true
					}
				}
				buf = c.Covering(site.Add(whole), buf)
				if len(buf) != len(want) {
					t.Fatalf("%s: Covering(%v) lists %d systems, the walk finds %d", tc.name, site, len(buf), len(want))
				}
				for _, cv := range buf {
					if !want[cv] {
						t.Fatalf("%s: Covering(%v) lists %+v, which the walk does not find", tc.name, site, cv)
					}
				}
			}
		}
	}
}

// TestCentresAliased: a box no wider than the table on one axis is
// reported as such, still answers SlotAt, and refuses Covering.
func TestCentresAliased(t *testing.T) {
	tb := stdTables(t)
	for _, cells := range [][3]int{{8, 8, 8}, {12, 6, 8}, {24, 24, 9}, {5, 6, 7}} {
		box := lattice.NewBoxGeometry(cells[0], cells[1], cells[2], tb.A)
		c := tb.NewCentres(box, lattice.Vec{}, lattice.Vec{X: 2 * cells[0], Y: 2 * cells[1], Z: 2 * cells[2]})
		if !c.Aliased() {
			t.Fatalf("%v cells against a table %d half-units wide: not reported aliased", cells, 2*tb.MaxExtent+1)
		}
		c.Put(0, lattice.Vec{X: 3, Y: 5, Z: 7})
		if slot, ok := c.SlotAt(lattice.Vec{X: 3 - 2*cells[0], Y: 5, Z: 7 + 2*cells[2]}); !ok || slot != 0 {
			t.Fatalf("%v cells: SlotAt = (%d, %v), want (0, true)", cells, slot, ok)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v cells: Covering did not panic", cells)
				}
			}()
			c.Covering(lattice.Vec{}, nil)
		}()
	}
	if tb.NewCentres(lattice.NewBoxGeometry(10, 10, 10, tb.A), lattice.Vec{}, lattice.Vec{X: 20, Y: 20, Z: 20}).Aliased() {
		t.Fatal("a 10-cell axis (period 20 against a 19-wide table) reported aliased")
	}
}
