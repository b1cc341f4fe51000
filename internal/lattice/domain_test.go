package lattice

import (
	"testing"
	"testing/quick"
)

func TestDomainCounts(t *testing.T) {
	d := NewDomain(Vec{0, 0, 0}, Vec{8, 8, 8}, 0, 2.87)
	if d.NumLocal() != 2*4*4*4 {
		t.Fatalf("NumLocal = %d, want 128", d.NumLocal())
	}
	if d.nAll != d.NumLocal() {
		t.Fatal("ghostless domain should have no ghost sites")
	}
}

func TestDomainGhostCounts(t *testing.T) {
	d := NewDomain(Vec{0, 0, 0}, Vec{8, 8, 8}, 5, 2.87)
	// Extended region is 18³ half-units; sites are half of all cells
	// when dimensions are even: 18³/2 = 2916... (parity classes).
	want := sitesInCuboid(-5, 13, -5, 13, -5, 13)
	if d.nAll != want {
		t.Fatalf("nAll = %d, want %d", d.nAll, want)
	}
	if ghosts := d.nAll - d.nLocal; ghosts != want-128 {
		t.Fatalf("ghost sites = %d, want %d", ghosts, want-128)
	}
}

func TestCountParity(t *testing.T) {
	cases := []struct{ lo, hi, p, want int }{
		{0, 10, 0, 5}, {0, 10, 1, 5},
		{0, 9, 0, 5}, {0, 9, 1, 4},
		{-3, 3, 0, 3}, {-3, 3, 1, 3},
		{-3, 4, 1, 4}, {5, 5, 0, 0}, {6, 5, 1, 0},
		{-1, 0, 1, 1}, {-1, 0, 0, 0},
	}
	for _, c := range cases {
		if got := countParity(c.lo, c.hi, c.p); got != c.want {
			t.Errorf("countParity(%d,%d,%d) = %d, want %d", c.lo, c.hi, c.p, got, c.want)
		}
	}
}

func TestCountParityQuick(t *testing.T) {
	f := func(lo int8, span uint8, p uint8) bool {
		l, h := int(lo), int(lo)+int(span)
		pp := int(p % 2)
		n := 0
		for x := l; x < h; x++ {
			if mod2(x) == pp {
				n++
			}
		}
		return countParity(l, h, pp) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDomainIndexMatchesPosID is the core Eq. (4) validation: the
// closed-form direct index must agree with the explicit POS_ID table for
// every site of the extended region, across several geometries including
// negative origins — and Neighbourhood, asked for every such site as an
// offset from the origin, must return Index's answer for each.
func TestDomainIndexMatchesPosID(t *testing.T) {
	geoms := []struct {
		origin, size Vec
		ghost        int
	}{
		{Vec{0, 0, 0}, Vec{8, 8, 8}, 5},
		{Vec{0, 0, 0}, Vec{4, 6, 8}, 3},
		{Vec{16, 8, 24}, Vec{8, 8, 4}, 5},
		{Vec{-8, 0, -16}, Vec{6, 4, 8}, 4},
		{Vec{2, 2, 2}, Vec{2, 2, 2}, 1},
		{Vec{0, 0, 0}, Vec{4, 4, 4}, 0},
		// A rank's slab as the sublattice layer cuts it: the upper half
		// of x, full y and z, ghost = CET extent at the standard cutoff.
		{Vec{12, 0, 0}, Vec{12, 12, 16}, 9},
		{Vec{32, 0, 0}, Vec{32, 64, 64}, 9},
	}
	for _, g := range geoms {
		d := NewDomain(g.origin, g.size, g.ghost, 2.87)
		ref := NewPosIDIndexer(d)
		seen := make([]bool, d.nAll)
		count := 0
		var rel []Vec
		lo := g.origin.Sub(Vec{g.ghost, g.ghost, g.ghost})
		hi := g.origin.Add(g.size).Add(Vec{g.ghost, g.ghost, g.ghost})
		for z := lo.Z; z < hi.Z; z++ {
			for y := lo.Y; y < hi.Y; y++ {
				for x := lo.X; x < hi.X; x++ {
					v := Vec{x, y, z}
					if !v.IsSite() {
						continue
					}
					got := d.Index(v)
					want := ref.Index(v)
					if got != want {
						t.Fatalf("geom %+v: Index(%v) = %d, POS_ID says %d", g, v, got, want)
					}
					if got < 0 || got >= d.nAll || seen[got] {
						t.Fatalf("geom %+v: index %d invalid or duplicated at %v", g, got, v)
					}
					if d.IsLocal(v) != (got < d.NumLocal()) {
						t.Fatalf("geom %+v: locality/index-range mismatch at %v", g, v)
					}
					seen[got] = true
					count++
					rel = append(rel, v.Sub(g.origin))
				}
			}
		}
		if count != d.nAll {
			t.Fatalf("geom %+v: visited %d sites, NumAll = %d", g, count, d.nAll)
		}
		idx := make([]int, len(rel))
		d.Neighbourhood(g.origin, rel, idx)
		for i, r := range rel {
			if want := d.Index(g.origin.Add(r)); idx[i] != want {
				t.Fatalf("geom %+v: Neighbourhood gives %d at offset %v, Index %d", g, idx[i], r, want)
			}
		}
	}
}

func TestDomainGetSet(t *testing.T) {
	d := NewDomain(Vec{0, 0, 0}, Vec{4, 4, 4}, 3, 2.87)
	local := Vec{1, 1, 1}
	ghost := Vec{-1, -1, -1}
	d.Set(local, Cu)
	d.Set(ghost, Vacancy)
	if d.Get(local) != Cu || d.Get(ghost) != Vacancy {
		t.Fatal("Get after Set failed for local/ghost sites")
	}
}

func TestDomainForEachLocal(t *testing.T) {
	d := NewDomain(Vec{0, 0, 0}, Vec{4, 4, 4}, 2, 2.87)
	next := 0
	d.ForEachLocal(func(v Vec, idx int) {
		if !d.IsLocal(v) {
			t.Fatalf("ForEachLocal yielded non-local %v", v)
		}
		if idx != next {
			t.Fatalf("local iteration out of raster order: got %d want %d", idx, next)
		}
		next++
	})
	if next != d.NumLocal() {
		t.Fatalf("ForEachLocal visited %d sites, want %d", next, d.NumLocal())
	}
}

func TestDomainForEachGhost(t *testing.T) {
	d := NewDomain(Vec{0, 0, 0}, Vec{4, 4, 4}, 2, 2.87)
	seen := map[int]bool{}
	d.ForEachGhost(func(v Vec, idx int) {
		if d.IsLocal(v) {
			t.Fatalf("ForEachGhost yielded local %v", v)
		}
		if idx < d.NumLocal() || idx >= d.nAll || seen[idx] {
			t.Fatalf("ghost index %d out of range or duplicated", idx)
		}
		seen[idx] = true
	})
	if len(seen) != d.nAll-d.nLocal {
		t.Fatalf("ForEachGhost visited %d sites, want %d", len(seen), d.nAll-d.nLocal)
	}
}

func TestDomainPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"odd size":      func() { NewDomain(Vec{0, 0, 0}, Vec{3, 4, 4}, 1, 2.87) },
		"zero size":     func() { NewDomain(Vec{0, 0, 0}, Vec{0, 4, 4}, 1, 2.87) },
		"odd origin":    func() { NewDomain(Vec{1, 0, 0}, Vec{4, 4, 4}, 1, 2.87) },
		"neg ghost":     func() { NewDomain(Vec{0, 0, 0}, Vec{4, 4, 4}, -1, 2.87) },
		"outside index": func() { NewDomain(Vec{0, 0, 0}, Vec{4, 4, 4}, 0, 2.87).Index(Vec{-1, -1, -1}) },
		"nonsite index": func() { NewDomain(Vec{0, 0, 0}, Vec{4, 4, 4}, 1, 2.87).Index(Vec{1, 0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPosIDTableBytes(t *testing.T) {
	d := NewDomain(Vec{0, 0, 0}, Vec{8, 8, 8}, 5, 2.87)
	ref := NewPosIDIndexer(d)
	want := 4 * 18 * 18 * 18
	if ref.TableBytes() != want {
		t.Fatalf("TableBytes = %d, want %d", ref.TableBytes(), want)
	}
}

// TestDomainIndexQuick is the property-based version of the Eq. (4)
// validation: on random geometries, Index must be a bijection onto
// [0, NumAll) with locals in [0, NumLocal), matching the POS_ID oracle.
func TestDomainIndexQuick(t *testing.T) {
	f := func(ox, oy, oz int8, sx, sy, sz, g uint8) bool {
		origin := Vec{X: 2 * int(ox), Y: 2 * int(oy), Z: 2 * int(oz)}
		size := Vec{X: 2 * (1 + int(sx)%5), Y: 2 * (1 + int(sy)%5), Z: 2 * (1 + int(sz)%5)}
		ghost := int(g) % 6
		d := NewDomain(origin, size, ghost, 2.87)
		ref := NewPosIDIndexer(d)
		seen := make([]bool, d.nAll)
		lo := origin.Sub(Vec{X: ghost, Y: ghost, Z: ghost})
		hi := origin.Add(size).Add(Vec{X: ghost, Y: ghost, Z: ghost})
		for z := lo.Z; z < hi.Z; z++ {
			for y := lo.Y; y < hi.Y; y++ {
				for x := lo.X; x < hi.X; x++ {
					v := Vec{X: x, Y: y, Z: z}
					if !v.IsSite() {
						continue
					}
					idx := d.Index(v)
					if idx != ref.Index(v) || idx < 0 || idx >= d.nAll || seen[idx] {
						return false
					}
					if d.IsLocal(v) != (idx < d.NumLocal()) {
						return false
					}
					seen[idx] = true
				}
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
