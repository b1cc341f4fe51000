package lattice

import (
	"testing"

	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// TestWrapMatchesModulo: the compare-and-add fast path must agree with
// the modulo definition everywhere, including the coordinates it hands
// over to the division (beyond one period) and both period parities.
func TestWrapMatchesModulo(t *testing.T) {
	for _, period := range []int{1, 2, 3, 7, 10, 12, 13, 48, 128} {
		for x := -10 * period; x <= 10*period; x++ {
			want := x % period
			if want < 0 {
				want += period
			}
			if got := wrap(x, period); got != want {
				t.Fatalf("wrap(%d, %d) = %d, want %d", x, period, got, want)
			}
		}
	}
}

// offsetsUpTo lists every valid site offset (the zero offset included)
// with all components in [-m, m]: a superset of any CET of that extent.
func offsetsUpTo(m int) []Vec {
	var out []Vec
	for x := -m; x <= m; x++ {
		for y := -m; y <= m; y++ {
			for z := -m; z <= m; z++ {
				if v := (Vec{x, y, z}); v.IsOffset() {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// TestNeighbourhoodMatchesIndex: the walk must return, offset for offset,
// what Box.Index and Box.Get return for the translated site. Every site
// of the box serves as a centre — so centres against every face, edge and
// corner are covered — once canonically and once as a far periodic image.
// 5×5×5 is the smallest box kmc.NewEngine accepts at the standard cutoff
// (period 10 against a CET extent of 9); offsets here reach the full
// period, the longest the walk allows. The second box has unequal axes.
func TestNeighbourhoodMatchesIndex(t *testing.T) {
	for _, dims := range [][3]int{{5, 5, 5}, {5, 6, 7}} {
		b := NewBox(dims[0], dims[1], dims[2], units.LatticeConstantFe)
		FillRandomAlloy(b, 0.3, 0.1, rng.New(3))
		rel := offsetsUpTo(10)
		idx := make([]int, len(rel))
		for site := 0; site < b.NumSites(); site++ {
			c := b.SiteAt(site)
			image := c.Add(Vec{-6 * b.Nx, 4 * b.Ny, 10 * b.Nz})
			for _, centre := range []Vec{c, image} {
				b.Neighbourhood(centre, rel, idx)
				for i, r := range rel {
					v := centre.Add(r)
					if idx[i] != b.Index(v) {
						t.Fatalf("box %v centre %v offset %v: walk index %d, Index %d", dims, centre, r, idx[i], b.Index(v))
					}
					if b.GetIndex(idx[i]) != b.Get(v) {
						t.Fatalf("box %v centre %v offset %v: species differ", dims, centre, r)
					}
				}
			}
		}
	}
}

func TestNeighbourhoodPanics(t *testing.T) {
	b := NewBox(5, 5, 5, units.LatticeConstantFe)
	for name, fn := range map[string]func(){
		"offset beyond one period": func() { b.Neighbourhood(Vec{8, 8, 8}, []Vec{{12, 0, 0}}, make([]int, 1)) },
		"negative beyond period":   func() { b.Neighbourhood(Vec{8, 8, 8}, []Vec{{0, 0, -20}}, make([]int, 1)) },
		"offset of mixed parity":   func() { b.Neighbourhood(Vec{0, 0, 0}, []Vec{{1, 0, 0}}, make([]int, 1)) },
		"centre not a site":        func() { b.Neighbourhood(Vec{1, 0, 0}, []Vec{{0, 0, 0}}, make([]int, 1)) },
		"short index buffer":       func() { b.Neighbourhood(Vec{0, 0, 0}, []Vec{{0, 0, 0}, {1, 1, 1}}, make([]int, 1)) },
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

// TestBoxGeometry: a geometry-only box indexes and wraps exactly like a
// populated one of the same shape and owns no species array.
func TestBoxGeometry(t *testing.T) {
	full := NewBox(5, 6, 7, units.LatticeConstantFe)
	geom := NewBoxGeometry(5, 6, 7, units.LatticeConstantFe)
	if geom.Types() != nil {
		t.Fatal("geometry-only box allocated a species array")
	}
	if geom.NumSites() != full.NumSites() || geom.Volume() != full.Volume() {
		t.Fatal("geometry-only box disagrees on size")
	}
	rel := offsetsUpTo(9)
	a, g := make([]int, len(rel)), make([]int, len(rel))
	for site := 0; site < full.NumSites(); site++ {
		v := full.SiteAt(site).Add(Vec{10, -12, 28})
		if geom.Index(v) != site || geom.SiteAt(site) != full.SiteAt(site) || geom.Wrap(v) != full.Wrap(v) {
			t.Fatalf("geometry-only box disagrees at site %d", site)
		}
		full.Neighbourhood(v, rel, a)
		geom.Neighbourhood(v, rel, g)
		for i := range a {
			if a[i] != g[i] {
				t.Fatalf("geometry-only walk disagrees at site %d offset %v", site, rel[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry accepted")
		}
	}()
	NewBoxGeometry(4, 0, 4, units.LatticeConstantFe)
}

var benchSink int

// BenchmarkBoxGet reads sites at the translated positions a VET refill
// visits: the per-site cost of the generic FillVET(get) entry.
func BenchmarkBoxGet(b *testing.B) {
	box := NewBox(24, 24, 24, units.LatticeConstantFe)
	rel := offsetsUpTo(9)
	c := Vec{46, 2, 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += int(box.Get(c.Add(rel[i%len(rel)])))
	}
}

// BenchmarkNeighbourhood reports the walk's cost per visited site.
func BenchmarkNeighbourhood(b *testing.B) {
	box := NewBox(24, 24, 24, units.LatticeConstantFe)
	rel := offsetsUpTo(9)
	idx := make([]int, len(rel))
	c := Vec{46, 2, 24}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(rel) {
		box.Neighbourhood(c, rel, idx)
		benchSink += idx[0]
	}
}

// BenchmarkDomainGet is BenchmarkBoxGet through Eq. (4): what a rank pays
// per site of a VET refill.
func BenchmarkDomainGet(b *testing.B) {
	d := NewDomain(Vec{64, 0, 0}, Vec{64, 128, 128}, 9, units.LatticeConstantFe)
	rel := offsetsUpTo(9)
	c := Vec{66, 126, 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += int(d.Get(c.Add(rel[i%len(rel)])))
	}
}
