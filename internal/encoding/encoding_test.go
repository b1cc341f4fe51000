package encoding

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func stdTables(t *testing.T) *Tables {
	t.Helper()
	return New(units.LatticeConstantFe, units.CutoffStandard)
}

// TestPaperDimensions pins the headline table sizes of Sec. 4.1.1:
// N_local = 112 and N_region = 253 at r_cut = 6.5 Å, a = 2.87 Å.
func TestPaperDimensions(t *testing.T) {
	tb := stdTables(t)
	if tb.NLocal != 112 {
		t.Errorf("NLocal = %d, want 112", tb.NLocal)
	}
	if tb.NRegion != 253 {
		t.Errorf("NRegion = %d, want 253", tb.NRegion)
	}
	if tb.NAll != tb.NRegion+tb.NOut {
		t.Errorf("NAll = %d, want NRegion+NOut = %d", tb.NAll, tb.NRegion+tb.NOut)
	}
	if len(tb.CET) != tb.NAll {
		t.Errorf("len(CET) = %d, want %d", len(tb.CET), tb.NAll)
	}
	if len(tb.NET) != tb.NRegion*tb.NLocal {
		t.Errorf("len(NET) = %d, want %d", len(tb.NET), tb.NRegion*tb.NLocal)
	}
	// Eight distinct shells within the 6.5 Å cutoff.
	if len(tb.Distances) != 8 {
		t.Errorf("len(Distances) = %d, want 8", len(tb.Distances))
	}
}

func TestShortCutoffDimensions(t *testing.T) {
	tb := New(units.LatticeConstantFe, units.CutoffShort)
	if tb.NLocal != 64 {
		t.Errorf("short-cutoff NLocal = %d, want 64", tb.NLocal)
	}
	if tb.NRegion >= 253 {
		t.Errorf("short-cutoff NRegion = %d, want < 253", tb.NRegion)
	}
}

func TestCETStructure(t *testing.T) {
	tb := stdTables(t)
	if tb.CET[0] != (lattice.Vec{}) {
		t.Fatal("CET[0] is not the origin")
	}
	seen := map[lattice.Vec]bool{}
	for i, v := range tb.CET {
		if !v.IsSite() {
			t.Fatalf("CET[%d] = %v violates bcc parity", i, v)
		}
		if seen[v] {
			t.Fatalf("CET contains duplicate %v", v)
		}
		seen[v] = true
	}
	// All eight 1NN sites must be in the region part and resolvable.
	for k, nn := range lattice.NN1 {
		idx := tb.NN1Index[k]
		if idx <= 0 || int(idx) >= tb.NRegion {
			t.Fatalf("NN1Index[%d] = %d outside region", k, idx)
		}
		if tb.CET[idx] != nn {
			t.Fatalf("NN1Index[%d] resolves to %v, want %v", k, tb.CET[idx], nn)
		}
	}
}

// TestRegionDefinition verifies the geometric meaning of the region: a
// site is in [0, NRegion) iff it is within r_cut of the centre or of one
// of the 8 first nearest neighbours.
func TestRegionDefinition(t *testing.T) {
	tb := stdTables(t)
	centers := append([]lattice.Vec{{}}, lattice.NN1[:]...)
	inRegion := func(v lattice.Vec) bool {
		for _, c := range centers {
			if v.Sub(c).Norm2() <= tb.Norm2Max {
				return true
			}
		}
		return false
	}
	for i, v := range tb.CET {
		want := i < tb.NRegion
		if got := inRegion(v); got != want {
			t.Fatalf("CET[%d] = %v: region membership %v, geometric test %v", i, v, want, got)
		}
	}
}

func TestNETConsistency(t *testing.T) {
	tb := stdTables(t)
	for i := 0; i < tb.NRegion; i++ {
		self := tb.CET[i]
		for _, nb := range tb.Neighbors(i) {
			other := tb.CET[nb.ID]
			d2 := other.Sub(self).Norm2()
			if d2 == 0 || d2 > tb.Norm2Max {
				t.Fatalf("NET of site %d lists %v at |Δ|²=%d", i, other, d2)
			}
			wantDist := 0.5 * tb.A * math.Sqrt(float64(d2))
			if math.Abs(tb.Distances[nb.DistIndex]-wantDist) > 1e-12 {
				t.Fatalf("NET distance index wrong for pair (%d,%d)", i, nb.ID)
			}
		}
	}
}

// TestNETSymmetry: if region sites i and j list each other, the quantised
// distances must agree (neighbour relations are symmetric).
func TestNETSymmetry(t *testing.T) {
	tb := stdTables(t)
	type pair struct{ a, b int32 }
	dist := map[pair]uint16{}
	for i := 0; i < tb.NRegion; i++ {
		for _, nb := range tb.Neighbors(i) {
			dist[pair{int32(i), nb.ID}] = nb.DistIndex
		}
	}
	for p, d := range dist {
		if int(p.b) < tb.NRegion {
			back, ok := dist[pair{p.b, p.a}]
			if !ok {
				t.Fatalf("site %d lists %d but not vice versa", p.a, p.b)
			}
			if back != d {
				t.Fatalf("asymmetric distance between %d and %d", p.a, p.b)
			}
		}
	}
}

func TestDistancesSorted(t *testing.T) {
	tb := stdTables(t)
	for i := 1; i < len(tb.Distances); i++ {
		if tb.Distances[i] <= tb.Distances[i-1] {
			t.Fatal("Distances not strictly ascending")
		}
	}
	if tb.Distances[0] < 2.4 || tb.Distances[0] > 2.5 {
		t.Fatalf("first shell distance = %v, want ≈2.485 Å", tb.Distances[0])
	}
	last := tb.Distances[len(tb.Distances)-1]
	if last > tb.Rcut {
		t.Fatalf("max tabulated distance %v exceeds cutoff %v", last, tb.Rcut)
	}
}

func TestFillVETAndApplyHop(t *testing.T) {
	tb := stdTables(t)
	box := lattice.NewBox(12, 12, 12, tb.A)
	r := rng.New(123)
	lattice.FillRandomAlloy(box, 0.1, 0.0, r)
	center := lattice.Vec{X: 6, Y: 6, Z: 6}
	box.Set(center, lattice.Vacancy)

	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	if vet[0] != lattice.Vacancy {
		t.Fatal("VET[0] is not the vacancy")
	}
	for i, rel := range tb.CET {
		if vet[i] != box.Get(center.Add(rel)) {
			t.Fatalf("VET[%d] does not match lattice", i)
		}
	}

	// ApplyHop must swap exactly two entries and be an involution.
	orig := append(VET(nil), vet...)
	for k := 0; k < 8; k++ {
		tb.ApplyHop(vet, k)
		j := tb.NN1Index[k]
		if vet[0] != orig[j] || vet[j] != orig[0] {
			t.Fatalf("hop %d did not swap correctly", k)
		}
		diffs := 0
		for i := range vet {
			if vet[i] != orig[i] {
				diffs++
			}
		}
		if orig[j] != orig[0] && diffs != 2 {
			t.Fatalf("hop %d changed %d entries, want 2", k, diffs)
		}
		tb.ApplyHop(vet, k)
		for i := range vet {
			if vet[i] != orig[i] {
				t.Fatalf("hop %d is not an involution", k)
			}
		}
	}
}

// TestIndexOf: the grid-backed IndexOf answers as the map it replaced —
// on every CET offset and on 10⁴ random offsets that are no entry, inside
// and outside the MaxExtent cube, valid displacements or not.
func TestIndexOf(t *testing.T) {
	for _, tb := range bothCutoffs(t) {
		oracle := cetMap(tb)
		for _, v := range tb.CET {
			if got, ok := tb.IndexOf(v); !ok || got != oracle[v] {
				t.Fatalf("IndexOf(%v) = (%d, %v), map says %d", v, got, ok, oracle[v])
			}
		}
		r := rng.New(41)
		reach := tb.MaxExtent + 3
		for n := 0; n < 10000; {
			v := lattice.Vec{X: r.Intn(2*reach+1) - reach, Y: r.Intn(2*reach+1) - reach, Z: r.Intn(2*reach+1) - reach}
			if _, member := oracle[v]; member {
				continue
			}
			n++
			if got, ok := tb.IndexOf(v); ok || got != 0 {
				t.Fatalf("IndexOf(%v) = (%d, %v) for an offset outside the CET", v, got, ok)
			}
		}
		if _, ok := tb.IndexOf(lattice.Vec{X: 100, Y: 100, Z: 100}); ok {
			t.Fatal("IndexOf found a site far outside the system")
		}
	}
}

// TestMirror: the mirror table is an involution that maps every CET entry
// to its inversion image, at the standard and a short cutoff.
func TestMirror(t *testing.T) {
	for _, tb := range []*Tables{stdTables(t), New(units.LatticeConstantFe, units.CutoffShort)} {
		if len(tb.Mirror) != tb.NAll {
			t.Fatalf("Mirror has %d entries, want NAll = %d", len(tb.Mirror), tb.NAll)
		}
		if tb.Mirror[0] != 0 {
			t.Fatal("the origin is not its own mirror")
		}
		for i, v := range tb.CET {
			m := tb.Mirror[i]
			if tb.Mirror[m] != int32(i) {
				t.Fatalf("Mirror[Mirror[%d]] = %d", i, tb.Mirror[m])
			}
			if tb.CET[m] != (lattice.Vec{X: -v.X, Y: -v.Y, Z: -v.Z}) {
				t.Fatalf("CET[Mirror[%d]] = %v, want −%v", i, tb.CET[m], v)
			}
			// Inversion preserves length, so region maps to region.
			if (i < tb.NRegion) != (int(m) < tb.NRegion) {
				t.Fatalf("mirror of entry %d crosses the region boundary", i)
			}
		}
	}
}

// TestHopSites checks the hop-site table against brute-force CET
// distances: every listed site carries the shells of its real distances to
// the origin and to the hop target, every unlisted region site is the
// origin, the target, or sees both at the same shell (or neither), and at
// the paper's (2.87, 6.5) each direction lists 142 of the 253 sites.
func TestHopSites(t *testing.T) {
	for _, tb := range []*Tables{stdTables(t), New(units.LatticeConstantFe, units.CutoffShort)} {
		// Brute-force shell of a separation: the index of its length in
		// Distances, −1 beyond the cutoff.
		shell := func(d lattice.Vec) int16 {
			r := 0.5 * tb.A * math.Sqrt(float64(d.Norm2()))
			if r > tb.Rcut {
				return -1
			}
			for i, x := range tb.Distances {
				if math.Abs(x-r) < 1e-9 {
					return int16(i)
				}
			}
			t.Fatalf("distance %v of separation %v is within the cutoff but not tabulated", r, d)
			return -1
		}
		for k, target := range lattice.NN1 {
			listed := map[int32]bool{}
			prev := int32(0)
			for _, h := range tb.HopSites[k] {
				if h.Site <= prev || int(h.Site) >= tb.NRegion || h.Site == tb.NN1Index[k] {
					t.Fatalf("direction %d: entry %+v is out of order, outside the region or the target", k, h)
				}
				prev = h.Site
				listed[h.Site] = true
				v := tb.CET[h.Site]
				if so, st := shell(v), shell(v.Sub(target)); h.ShellOrigin != so || h.ShellTarget != st {
					t.Fatalf("direction %d site %d: shells (%d, %d), brute force (%d, %d)", k, h.Site, h.ShellOrigin, h.ShellTarget, so, st)
				}
				if h.ShellOrigin == h.ShellTarget {
					t.Fatalf("direction %d site %d listed with equal shells %d", k, h.Site, h.ShellOrigin)
				}
			}
			for j := 1; j < tb.NRegion; j++ {
				if listed[int32(j)] || int32(j) == tb.NN1Index[k] {
					continue
				}
				v := tb.CET[j]
				if so, st := shell(v), shell(v.Sub(target)); so != st {
					t.Fatalf("direction %d: site %d has shells (%d, %d) but is not listed", k, j, so, st)
				}
			}
			if tb.Rcut == units.CutoffStandard && len(tb.HopSites[k]) != 142 {
				t.Fatalf("direction %d lists %d sites, want 142 at 6.5 Å", k, len(tb.HopSites[k]))
			}
		}
	}
}

// TestMaxExtent: New derives MaxExtent from the ball before the CET exists
// (the offset grid is sized by it); it must be exactly the largest
// coordinate the CET then holds, not merely a bound.
func TestMaxExtent(t *testing.T) {
	for _, tb := range bothCutoffs(t) {
		largest := 0
		for _, v := range tb.CET {
			largest = max(largest, abs(v.X), abs(v.Y), abs(v.Z))
		}
		if tb.MaxExtent != largest {
			t.Fatalf("MaxExtent = %d, largest CET coordinate %d", tb.MaxExtent, largest)
		}
	}
	// Region reaches 1 + √20 ≈ 5.47 → 5; the outer shell adds another
	// ball radius ≈ 4.47.
	if got := stdTables(t).MaxExtent; got != 9 {
		t.Fatalf("MaxExtent = %d, want 9 for the 6.5 Å cutoff", got)
	}
}

// TestExtentMatchesTables: Extent, computed from (a, rcut) alone, is the
// MaxExtent the built tables carry — and the largest coordinate in their
// CET — across a sweep of lattice constants and cutoffs, including
// cutoffs too short to reach any neighbour.
func TestExtentMatchesTables(t *testing.T) {
	for _, a := range []float64{2.0, 2.5, units.LatticeConstantFe, 3.3, 4.1} {
		for rcut := 0.5; rcut <= 2.6*a; rcut += 0.23 {
			tb := New(a, rcut)
			largest := 0
			for _, v := range tb.CET {
				largest = max(largest, abs(v.X), abs(v.Y), abs(v.Z))
			}
			if got := Extent(a, rcut); got != tb.MaxExtent || got != max(largest, 1) {
				t.Fatalf("a=%g rcut=%g: Extent = %d, tables' MaxExtent %d, largest CET coordinate %d",
					a, rcut, got, tb.MaxExtent, largest)
			}
		}
	}
}

func TestMemoryBytesPositiveAndSmall(t *testing.T) {
	tb := stdTables(t)
	mb := tb.MemoryBytes()
	if mb <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
	// Shared tables are a constant few hundred kB — independent of the
	// simulation size. That independence is the whole point of TET.
	if mb > 1<<21 {
		t.Fatalf("shared tables unexpectedly large: %d bytes", mb)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, args := range [][2]float64{{0, 6.5}, {2.87, 0}, {-1, 6.5}, {math.NaN(), 6.5}, {2.87, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v, %v) did not panic", args[0], args[1])
				}
			}()
			New(args[0], args[1])
		}()
	}
}

// TestTablesIndependentOfCallOrder: the shared tables New hands out equal,
// in every field, tables built afresh after them.
func TestTablesIndependentOfCallOrder(t *testing.T) {
	for _, rcut := range []float64{units.CutoffStandard, units.CutoffShort} {
		a := New(units.LatticeConstantFe, rcut)
		if b := build(units.LatticeConstantFe, rcut); !reflect.DeepEqual(a, b) {
			t.Fatalf("rcut %v: shared tables differ from a fresh build", rcut)
		}
	}
}

// TestTablesSharedPerProcess: New returns one instance per (a, rcut) pair
// and distinct instances for distinct pairs, and concurrent first callers
// of a pair all get the one instance built for them.
func TestTablesSharedPerProcess(t *testing.T) {
	a, rcut := units.LatticeConstantFe, units.CutoffStandard
	tb := New(a, rcut)
	if New(a, rcut) != tb {
		t.Fatal("equal (a, rcut) gave two instances")
	}
	if New(a, units.CutoffShort) == tb || New(2.86, rcut) == tb {
		t.Fatal("a different (a, rcut) gave the same instance")
	}

	// Forget the pair first, so every caller below is a first one however
	// often the test runs in this process.
	const ka, kr = 2.9, 6.1
	forget := func() {
		sharedMu.Lock()
		shared = slices.DeleteFunc(shared, func(t *Tables) bool { return t.A == ka && t.Rcut == kr })
		sharedMu.Unlock()
	}
	forget()
	t.Cleanup(forget)
	const callers = 8
	var got [callers]*Tables
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = New(ka, kr)
		}()
	}
	close(start)
	wg.Wait()
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("concurrent caller %d got %p, caller 0 %p", i, g, got[0])
		}
	}
}

// TestTablesMemoBounded: a process asked for many distinct pairs keeps
// the tables of only the sharedPairs most recent ones, still shares those,
// and rebuilds an evicted pair equal to before.
func TestTablesMemoBounded(t *testing.T) {
	first := New(2.5, 4.0)
	var last *Tables
	for i := range 3 * sharedPairs {
		last = New(2.5+float64(i+1)*1e-7, 4.0)
	}
	sharedMu.Lock()
	n := len(shared)
	sharedMu.Unlock()
	if n > sharedPairs {
		t.Fatalf("memo holds %d pairs, want at most %d", n, sharedPairs)
	}
	if New(last.A, last.Rcut) != last {
		t.Fatal("the most recent pair is no longer shared")
	}
	again := New(2.5, 4.0)
	if again == first {
		t.Fatal("the oldest pair survived more distinct pairs than the memo holds")
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatal("a rebuilt pair differs from its first build")
	}
}
