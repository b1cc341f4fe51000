package lattice

import (
	"math"
	"testing"
	"testing/quick"

	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func TestSpeciesString(t *testing.T) {
	cases := map[Species]string{Fe: "Fe", Cu: "Cu", Vacancy: "Vac", Species(9): "Species(9)"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestSpeciesEA0(t *testing.T) {
	if Fe.EA0() != units.EA0Fe || Cu.EA0() != units.EA0Cu {
		t.Fatal("EA0 constants do not match units package")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Vacancy.EA0() did not panic")
		}
	}()
	Vacancy.EA0()
}

func TestVecParity(t *testing.T) {
	valid := []Vec{{0, 0, 0}, {1, 1, 1}, {2, 0, 0}, {-1, 1, -1}, {3, -1, 1}}
	for _, v := range valid {
		if !v.IsSite() {
			t.Errorf("%v should be a site", v)
		}
	}
	invalid := []Vec{{1, 0, 0}, {1, 1, 0}, {0, 1, 1}, {2, 1, 2}}
	for _, v := range invalid {
		if v.IsSite() {
			t.Errorf("%v should not be a site", v)
		}
	}
}

func TestNN1Geometry(t *testing.T) {
	seen := map[Vec]bool{}
	for _, v := range NN1 {
		if v.Norm2() != 3 {
			t.Errorf("1NN offset %v has |v|² = %d, want 3", v, v.Norm2())
		}
		if !v.IsOffset() {
			t.Errorf("1NN offset %v violates parity", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("NN1 has %d distinct offsets, want 8", len(seen))
	}
	// 1NN physical distance for a = 2.87 Å is a·√3/2 ≈ 2.485 Å.
	d := NN1[0].Dist(units.LatticeConstantFe)
	if math.Abs(d-2.4855) > 1e-3 {
		t.Fatalf("1NN distance = %v Å, want ≈2.485", d)
	}
}

// TestShellPopulations pins the cumulative bcc neighbour-shell counts that
// produce the paper's N_local values: 112 at r_cut = 6.5 Å and 64 at the
// short 5.8 Å cutoff (Sec. 4.1.1 / Fig. 11).
func TestShellPopulations(t *testing.T) {
	n2 := HalfUnitsForCutoff(units.CutoffStandard, units.LatticeConstantFe)
	offs := OffsetsWithin(n2)
	if len(offs) != 112 {
		t.Fatalf("N_local at 6.5 Å = %d, want 112", len(offs))
	}
	n2s := HalfUnitsForCutoff(units.CutoffShort, units.LatticeConstantFe)
	offsShort := OffsetsWithin(n2s)
	if len(offsShort) != 64 {
		t.Fatalf("N_local at 5.8 Å = %d, want 64", len(offsShort))
	}
	// Shell structure: 8 at |v|²=3, 6 at 4, 12 at 8, 24 at 11, 8 at 12,
	// 6 at 16, 24 at 19, 24 at 20.
	shell := map[int]int{}
	for _, v := range offs {
		shell[v.Norm2()]++
	}
	want := map[int]int{3: 8, 4: 6, 8: 12, 11: 24, 12: 8, 16: 6, 19: 24, 20: 24}
	for n2, count := range want {
		if shell[n2] != count {
			t.Errorf("shell |v|²=%d has %d sites, want %d", n2, shell[n2], count)
		}
	}
}

func TestOffsetsSortedAndDeduped(t *testing.T) {
	offs := OffsetsWithin(20)
	seen := map[Vec]bool{}
	prev := -1
	for _, v := range offs {
		if seen[v] {
			t.Fatalf("duplicate offset %v", v)
		}
		seen[v] = true
		if v.Norm2() < prev {
			t.Fatalf("offsets not sorted by shell at %v", v)
		}
		prev = v.Norm2()
	}
}

func TestBoxIndexRoundTrip(t *testing.T) {
	b := NewBox(3, 4, 5, units.LatticeConstantFe)
	if b.NumSites() != 2*3*4*5 {
		t.Fatalf("NumSites = %d, want %d", b.NumSites(), 120)
	}
	seen := make([]bool, b.NumSites())
	for i := 0; i < b.NumSites(); i++ {
		v := b.SiteAt(i)
		if !v.IsSite() {
			t.Fatalf("SiteAt(%d) = %v is not a site", i, v)
		}
		j := b.Index(v)
		if j != i {
			t.Fatalf("Index(SiteAt(%d)) = %d", i, j)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestBoxPeriodicWrap(t *testing.T) {
	b := NewBox(4, 4, 4, units.LatticeConstantFe)
	base := Vec{1, 1, 1}
	images := []Vec{
		{1 + 8, 1, 1}, {1, 1 - 8, 1}, {1 - 16, 1 + 8, 1 + 24},
	}
	want := b.Index(base)
	for _, im := range images {
		if got := b.Index(im); got != want {
			t.Errorf("periodic image %v indexed to %d, want %d", im, got, want)
		}
	}
}

func TestBoxGetSet(t *testing.T) {
	b := NewBox(2, 2, 2, units.LatticeConstantFe)
	v := Vec{1, 1, 1}
	b.Set(v, Cu)
	if b.Get(v) != Cu {
		t.Fatal("Get after Set failed")
	}
	if b.Get(Vec{1 + 4, 1, 1}) != Cu {
		t.Fatal("Get through periodic image failed")
	}
	fe, cu, vac := b.Count()
	if fe != 15 || cu != 1 || vac != 0 {
		t.Fatalf("Count = (%d,%d,%d), want (15,1,0)", fe, cu, vac)
	}
}

func TestBoxInvalidConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBox(0,1,1) did not panic")
		}
	}()
	NewBox(0, 1, 1, 2.87)
}

func TestBoxIndexRejectsNonSite(t *testing.T) {
	b := NewBox(2, 2, 2, 2.87)
	defer func() {
		if recover() == nil {
			t.Fatal("Index of non-site did not panic")
		}
	}()
	b.Index(Vec{1, 0, 0})
}

func TestBoxCloneEqual(t *testing.T) {
	b := NewBox(3, 3, 3, 2.87)
	r := rng.New(5)
	FillRandomAlloy(b, 0.1, 0.02, r)
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Types()[0] = Vacancy
	if b.Equal(c) && b.GetIndex(0) != Vacancy {
		t.Fatal("clone aliases original storage")
	}
}

func TestFillRandomAlloyCounts(t *testing.T) {
	b := NewBox(10, 10, 10, 2.87)
	r := rng.New(77)
	nCu, nVac := FillRandomAlloy(b, 0.0134, 0.0008, r)
	fe, cu, vac := b.Count()
	if cu != nCu || vac != nVac {
		t.Fatalf("counted (%d Cu, %d vac), reported (%d, %d)", cu, vac, nCu, nVac)
	}
	wantCu := int(0.0134*float64(b.NumSites()) + 0.5)
	wantVac := int(0.0008*float64(b.NumSites()) + 0.5)
	if cu != wantCu || vac != wantVac {
		t.Fatalf("got %d Cu %d vac, want %d and %d", cu, vac, wantCu, wantVac)
	}
	if fe+cu+vac != b.NumSites() {
		t.Fatal("species counts do not cover the box")
	}
}

func TestFillRandomAlloyDeterministic(t *testing.T) {
	a := NewBox(6, 6, 6, 2.87)
	b := NewBox(6, 6, 6, 2.87)
	FillRandomAlloy(a, 0.05, 0.01, rng.New(3))
	FillRandomAlloy(b, 0.05, 0.01, rng.New(3))
	if !a.Equal(b) {
		t.Fatal("same seed produced different alloys")
	}
}

func TestVacancies(t *testing.T) {
	b := NewBox(4, 4, 4, 2.87)
	b.Set(Vec{0, 0, 0}, Vacancy)
	b.Set(Vec{3, 3, 3}, Vacancy)
	vs := Vacancies(b)
	if len(vs) != 2 {
		t.Fatalf("found %d vacancies, want 2", len(vs))
	}
	for _, v := range vs {
		if b.Get(v) != Vacancy {
			t.Fatalf("Vacancies returned non-vacancy site %v", v)
		}
	}
}

func TestBoxVolume(t *testing.T) {
	b := NewBox(100, 100, 100, 2.87)
	// (100 · 2.87 Å)³ = (2.87e-8 m · 100)³.
	want := math.Pow(100*2.87e-10, 3)
	if math.Abs(b.Volume()-want)/want > 1e-12 {
		t.Fatalf("Volume = %v, want %v", b.Volume(), want)
	}
}

func TestHalfUnitsForCutoff(t *testing.T) {
	// 6.5 Å with a = 2.87 Å → (2·6.5/2.87)² ≈ 20.52 → 20.
	if got := HalfUnitsForCutoff(6.5, 2.87); got != 20 {
		t.Fatalf("HalfUnitsForCutoff(6.5) = %d, want 20", got)
	}
	if got := HalfUnitsForCutoff(5.8, 2.87); got != 16 {
		t.Fatalf("HalfUnitsForCutoff(5.8) = %d, want 16", got)
	}
}

func TestVecDistQuick(t *testing.T) {
	f := func(x, y, z int8) bool {
		v := Vec{int(x), int(y), int(z)}
		d := v.Dist(2.0)
		want := math.Sqrt(float64(v.Norm2()))
		return math.Abs(d-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// offsetsWithinByShell is the shell-by-shell rescan OffsetsWithin once
// was, kept as its oracle: for each n² in turn it scans the whole cube.
func offsetsWithinByShell(norm2Max int) []Vec {
	if norm2Max < 0 {
		return nil
	}
	r := int(math.Sqrt(float64(norm2Max)))
	var out []Vec
	for n2 := 1; n2 <= norm2Max; n2++ {
		for x := -r; x <= r; x++ {
			for y := -r; y <= r; y++ {
				for z := -r; z <= r; z++ {
					v := Vec{x, y, z}
					if v.Norm2() == n2 && v.IsOffset() {
						out = append(out, v)
					}
				}
			}
		}
	}
	return out
}

// TestOffsetsWithinMatchesShellScan: the one-pass enumeration returns
// exactly the shell scan's offsets in exactly its order.
func TestOffsetsWithinMatchesShellScan(t *testing.T) {
	for n := -1; n <= 300; n++ {
		got, want := OffsetsWithin(n), offsetsWithinByShell(n)
		if len(got) != len(want) {
			t.Fatalf("N=%d: %d offsets, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("N=%d: offset %d is %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}
