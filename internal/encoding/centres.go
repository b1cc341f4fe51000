package encoding

import (
	"fmt"

	"tensorkmc/internal/lattice"
)

// Centres is an engine's set of tracked vacancy-system centres, each
// under the engine's slot number, held in a uniform cell list over the
// periodic box: cells are at least MaxExtent wide, so every centre whose
// table can contain a given site lies in the site's cell or one of its 26
// neighbours. It answers the two questions hop bookkeeping asks — which
// system is centred here (SlotAt), and which systems hold this changed
// site in their VET, at which entry (Covering) — from a few chained slots
// instead of a walk over the table's NAll lattice sites, and is the only
// centre→slot structure an engine keeps.
//
// Cells exist only for the window the centres are confined to (the whole
// box for the serial engine, the local region for a sublattice rank), so
// the footprint follows the sites an engine owns, not the global box.
type Centres struct {
	tb  *Tables
	box *lattice.Box // geometry: periods and wrapping

	// Per axis: the box period in half-units, the number of cells the
	// period is cut into, and the window's first cell and cell count.
	period, cells, first, span [3]int
	aliased                    bool // some period ≤ 2·MaxExtent

	head []int32       // window cell → first slot of its chain, −1 if empty
	next []int32       // slot → next slot of its cell, −1 at the end
	at   []lattice.Vec // slot → canonical centre
}

// Cover is one system that holds a site in its VET: the system's slot and
// the CET entry at which it sees the site.
type Cover struct {
	Slot  int
	Entry int32
}

// NewCentres returns an empty set for centres confined to the cuboid
// [origin, origin+size) of the box (canonical half-unit coordinates).
func (t *Tables) NewCentres(box *lattice.Box, origin, size lattice.Vec) *Centres {
	c := &Centres{tb: t, box: box, period: [3]int{2 * box.Nx, 2 * box.Ny, 2 * box.Nz}}
	lo, hi := [3]int{origin.X, origin.Y, origin.Z}, [3]int{origin.X + size.X, origin.Y + size.Y, origin.Z + size.Z}
	for a := range c.period {
		if lo[a] < 0 || hi[a] <= lo[a] || hi[a] > c.period[a] {
			panic(fmt.Sprintf("encoding: centre window %v+%v outside the %dx%dx%d box", origin, size, box.Nx, box.Ny, box.Nz))
		}
		c.aliased = c.aliased || c.period[a] <= 2*t.MaxExtent
		c.cells[a] = max(1, c.period[a]/t.MaxExtent)
		c.first[a] = c.cell(a, lo[a])
		c.span[a] = c.cell(a, hi[a]-1) - c.first[a] + 1
	}
	c.head = make([]int32, c.span[0]*c.span[1]*c.span[2])
	for i := range c.head {
		c.head[i] = -1
	}
	return c
}

// Aliased reports whether the box is no wider than the table on some axis
// (period ≤ 2·MaxExtent), so that a VET can hold two periodic images of
// one site. Covering and Tables.HopVET assume it cannot; an engine over
// such a box walks the lattice instead.
func (c *Centres) Aliased() bool { return c.aliased }

// cell is the cell coordinate of canonical coordinate x on axis a. Cells
// are period/cells wide up to rounding, never narrower than MaxExtent.
func (c *Centres) cell(a, x int) int { return x * c.cells[a] / c.period[a] }

// chain returns the head of the chain of the cell holding canonical site v.
func (c *Centres) chain(v lattice.Vec) *int32 {
	x, y, z := c.cell(0, v.X)-c.first[0], c.cell(1, v.Y)-c.first[1], c.cell(2, v.Z)-c.first[2]
	if uint(x) >= uint(c.span[0]) || uint(y) >= uint(c.span[1]) || uint(z) >= uint(c.span[2]) {
		return nil
	}
	return &c.head[(z*c.span[1]+y)*c.span[0]+x]
}

// Put tracks centre (any periodic image) under slot, which must be free.
func (c *Centres) Put(slot int, centre lattice.Vec) {
	v := c.box.Wrap(centre)
	head := c.chain(v)
	if head == nil {
		panic(fmt.Sprintf("encoding: centre %v outside the tracked window", centre))
	}
	for len(c.next) <= slot {
		c.next = append(c.next, -1)
		c.at = append(c.at, lattice.Vec{})
	}
	c.at[slot] = v
	c.next[slot] = *head
	*head = int32(slot)
}

// Drop stops tracking the centre held under slot.
func (c *Centres) Drop(slot int) {
	link := c.chain(c.at[slot])
	for *link != int32(slot) {
		link = &c.next[*link]
	}
	*link = c.next[slot]
}

// SlotAt returns the slot tracking a centre at the given site (any
// periodic image), if there is one.
func (c *Centres) SlotAt(site lattice.Vec) (int, bool) {
	v := c.box.Wrap(site)
	if head := c.chain(v); head != nil {
		for slot := *head; slot >= 0; slot = c.next[slot] {
			if c.at[slot] == v {
				return int(slot), true
			}
		}
	}
	return 0, false
}

// Covering appends to buf[:0] one Cover for every tracked system whose
// table contains the site (any periodic image): by minimal image the site
// lies at one offset from each nearby centre, and the offset grid says
// whether, and where, the CET holds it. The order is unspecified. It
// panics on an aliased box, where a system can hold the site twice.
func (c *Centres) Covering(site lattice.Vec, buf []Cover) []Cover {
	if c.aliased {
		panic("encoding: Covering on a box no wider than the table")
	}
	v := c.box.Wrap(site)
	buf = buf[:0]
	var near [3][3]int // per axis: window coordinates of the cells to visit
	var n [3]int
	for a, x := range [3]int{v.X, v.Y, v.Z} {
		// Cells c−1, c, c+1 around the site's; with two cells on the axis
		// (an unaliased box has at least two) those are both of them.
		cell := c.cell(a, x)
		for d := -1; d < min(c.cells[a], 3)-1; d++ {
			w := cell + d
			if w < 0 {
				w += c.cells[a]
			} else if w >= c.cells[a] {
				w -= c.cells[a]
			}
			if w -= c.first[a]; uint(w) < uint(c.span[a]) {
				near[a][n[a]] = w
				n[a]++
			}
		}
	}
	for _, z := range near[2][:n[2]] {
		for _, y := range near[1][:n[1]] {
			for _, x := range near[0][:n[0]] {
				for slot := c.head[(z*c.span[1]+y)*c.span[0]+x]; slot >= 0; slot = c.next[slot] {
					d := v.Sub(c.at[slot])
					d.X = minimalImage(d.X, c.period[0])
					d.Y = minimalImage(d.Y, c.period[1])
					d.Z = minimalImage(d.Z, c.period[2])
					if entry, ok := c.tb.IndexOf(d); ok {
						buf = append(buf, Cover{Slot: int(slot), Entry: entry})
					}
				}
			}
		}
	}
	return buf
}

// minimalImage maps a difference of two canonical coordinates, which lies
// within one period of zero, to its periodic image nearest zero.
func minimalImage(d, period int) int {
	if 2*d > period {
		return d - period
	}
	if 2*d < -period {
		return d + period
	}
	return d
}
