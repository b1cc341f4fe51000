package feature

import (
	"math"
	"testing"
	"testing/quick"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func TestStandardPQ(t *testing.T) {
	pq := StandardPQ()
	if len(pq) != 32 {
		t.Fatalf("len(StandardPQ) = %d, want 32", len(pq))
	}
	if math.Abs(pq[0].P-4.2) > 1e-12 || math.Abs(pq[0].Q-1.85) > 1e-12 {
		t.Fatalf("first set = %+v, want p=4.2 q=1.85", pq[0])
	}
	last := pq[31]
	if math.Abs(last.P-1.1) > 1e-9 || math.Abs(last.Q-3.4) > 1e-9 {
		t.Fatalf("last set = %+v, want p=1.1 q=3.4", last)
	}
	for _, s := range pq {
		if s.P <= 0 || s.Q <= 0 {
			t.Fatalf("invalid hyper-parameters %+v", s)
		}
	}
}

func TestStandardDescriptorDim(t *testing.T) {
	d := Standard(units.CutoffStandard)
	if d.Dim() != 64 {
		t.Fatalf("Dim = %d, want 64 (the NNP input width)", d.Dim())
	}
	if d.NDim() != 32 || d.NEl != 2 {
		t.Fatalf("NDim=%d NEl=%d, want 32 and 2", d.NDim(), d.NEl)
	}
}

func TestEvalProperties(t *testing.T) {
	d := Standard(6.5)
	out1 := make([]float64, d.NDim())
	out2 := make([]float64, d.NDim())
	d.Eval(2.5, out1)
	d.Eval(4.0, out2)
	for c := range out1 {
		if out1[c] <= 0 || out1[c] >= 1 {
			t.Fatalf("channel %d value %v outside (0,1)", c, out1[c])
		}
		if out2[c] >= out1[c] {
			t.Fatalf("channel %d not decreasing in r", c)
		}
	}
}

func TestEvalDerivMatchesNumerical(t *testing.T) {
	d := Standard(6.5)
	val := make([]float64, d.NDim())
	der := make([]float64, d.NDim())
	lo := make([]float64, d.NDim())
	hi := make([]float64, d.NDim())
	const h = 1e-6
	for _, r := range []float64{2.0, 2.485, 3.5, 5.0, 6.4} {
		d.EvalDeriv(r, val, der)
		d.Eval(r-h, lo)
		d.Eval(r+h, hi)
		for c := range der {
			num := (hi[c] - lo[c]) / (2 * h)
			if math.Abs(num-der[c]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("r=%v channel %d: analytic %v vs numeric %v", r, c, der[c], num)
			}
			if der[c] >= 0 {
				t.Fatalf("derivative should be negative, got %v", der[c])
			}
		}
	}
}

func TestNewDescriptorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty pq": func() { NewDescriptor(nil, 2, 6.5) },
		"zero nel": func() { NewDescriptor(StandardPQ(), 0, 6.5) },
		"bad rcut": func() { NewDescriptor(StandardPQ(), 2, 0) },
		"bad pq":   func() { NewDescriptor([]PQ{{P: -1, Q: 2}}, 2, 6.5) },
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

func TestTableMatchesEval(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	d := Standard(units.CutoffStandard)
	tab := NewTable(d, tb.Distances)
	row := make([]float64, d.NDim())
	for i, r := range tb.Distances {
		d.Eval(r, row)
		got := tab.Row(i)
		flat := tab.Values()[i*d.NDim():]
		for c := range row {
			if got[c] != row[c] || flat[c] != row[c] {
				t.Fatalf("TABLE[%d][%d] = %v (Values %v), Eval = %v", i, c, got[c], flat[c], row[c])
			}
		}
	}
	if len(tab.Values()) != len(tb.Distances)*d.NDim() {
		t.Fatalf("Values has %d entries, want %d", len(tab.Values()), len(tb.Distances)*d.NDim())
	}
	if tab.MemoryBytes() != 8*len(tb.Distances)*d.NDim() {
		t.Fatal("MemoryBytes wrong")
	}
}

// regionSetup builds a filled box with a central vacancy and its VET.
func regionSetup(t *testing.T, seed uint64) (*encoding.Tables, *Table, encoding.VET) {
	t.Helper()
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	d := Standard(units.CutoffStandard)
	tab := NewTable(d, tb.Distances)
	box := lattice.NewBox(14, 14, 14, tb.A)
	lattice.FillRandomAlloy(box, 0.15, 0.001, rng.New(seed))
	center := lattice.Vec{X: 14, Y: 14, Z: 14}
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	return tb, tab, vet
}

func TestComputeSiteMatchesDirect(t *testing.T) {
	tb, tab, vet := regionSetup(t, 9)
	d := tab.Desc()
	fast := make([]float64, d.Dim())
	slow := make([]float64, d.Dim())
	for i := 0; i < tb.NRegion; i += 7 {
		ComputeSite(tb, tab, vet, i, fast)
		ComputeSiteDirect(tb, d, vet, i, slow)
		for c := range fast {
			if math.Abs(fast[c]-slow[c]) > 1e-12 {
				t.Fatalf("site %d channel %d: table %v direct %v", i, c, fast[c], slow[c])
			}
		}
	}
}

// TestRowFromCountsMatchesComputeSite: a tally laid out as documented
// (cnt[element·nDist+shell]) gives ComputeSite's row bit for bit, and so
// does a kept tally adjusted by ±1 for a hop — the property the
// incremental hop kernel stands on.
func TestRowFromCountsMatchesComputeSite(t *testing.T) {
	tb, tab, vet := regionSetup(t, 10)
	d := tab.Desc()
	nDist := len(tb.Distances)
	tally := func(i int) []uint16 {
		cnt := make([]uint16, d.NEl*nDist)
		for _, nb := range tb.Neighbors(i) {
			if s := vet[nb.ID]; s.IsAtom() {
				cnt[int(s)*nDist+int(nb.DistIndex)]++
			}
		}
		return cnt
	}
	want := make([]float64, d.Dim())
	got := make([]float64, d.Dim())
	same := func(what string, i int) {
		t.Helper()
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s, site %d channel %d: from counts %v, ComputeSite %v", what, i, c, got[c], want[c])
			}
		}
	}
	for i := 0; i < tb.NRegion; i++ {
		ComputeSite(tb, tab, vet, i, want)
		tab.RowFromCounts(tally(i), got)
		same("initial state", i)
	}
	for k := range tb.HopSites {
		mover := vet[tb.NN1Index[k]]
		if !mover.IsAtom() {
			continue
		}
		before := make([][]uint16, tb.NRegion)
		for _, h := range tb.HopSites[k] {
			before[h.Site] = tally(int(h.Site))
		}
		tb.ApplyHop(vet, k)
		for _, h := range tb.HopSites[k] {
			cnt := before[h.Site]
			if h.ShellOrigin >= 0 {
				cnt[int(mover)*nDist+int(h.ShellOrigin)]++
			}
			if h.ShellTarget >= 0 {
				cnt[int(mover)*nDist+int(h.ShellTarget)]--
			}
			ComputeSite(tb, tab, vet, int(h.Site), want)
			tab.RowFromCounts(cnt, got)
			same("after hop", int(h.Site))
		}
		tb.ApplyHop(vet, k)
	}
}

func TestComputeRegionLayout(t *testing.T) {
	tb, tab, vet := regionSetup(t, 10)
	d := tab.Desc()
	out := make([]float64, tb.NRegion*d.Dim())
	ComputeRegion(tb, tab, vet, out)
	single := make([]float64, d.Dim())
	for _, i := range []int{0, 1, tb.NRegion / 2, tb.NRegion - 1} {
		ComputeSite(tb, tab, vet, i, single)
		for c := range single {
			if out[i*d.Dim()+c] != single[c] {
				t.Fatalf("region layout mismatch at site %d channel %d", i, c)
			}
		}
	}
}

func TestComputeRegionPanicsOnBadBuffer(t *testing.T) {
	tb, tab, vet := regionSetup(t, 11)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short buffer")
		}
	}()
	ComputeRegion(tb, tab, vet, make([]float64, 3))
}

// TestVacancyContributesNothing: replacing a neighbour atom with a
// vacancy must strictly reduce (or keep, per channel) the centre's
// feature sums, and exactly by that neighbour's TABLE row.
func TestVacancyContributesNothing(t *testing.T) {
	tb, tab, vet := regionSetup(t, 12)
	d := tab.Desc()
	before := make([]float64, d.Dim())
	ComputeSite(tb, tab, vet, 0, before)
	// Take the first atomic neighbour of site 0 and vacate it.
	nbs := tb.Neighbors(0)
	var chosen encoding.Neighbor
	found := false
	for _, nb := range nbs {
		if vet[nb.ID].IsAtom() {
			chosen, found = nb, true
			break
		}
	}
	if !found {
		t.Fatal("no atomic neighbour found")
	}
	el := int(vet[chosen.ID])
	vet[chosen.ID] = lattice.Vacancy
	after := make([]float64, d.Dim())
	ComputeSite(tb, tab, vet, 0, after)
	row := tab.Row(int(chosen.DistIndex))
	for c := 0; c < d.NDim(); c++ {
		wantDrop := row[c]
		got := before[d.Channel(el, c)] - after[d.Channel(el, c)]
		if math.Abs(got-wantDrop) > 1e-12 {
			t.Fatalf("channel %d dropped by %v, want %v", c, got, wantDrop)
		}
	}
}

// --- continuous path ---

// bccStructure builds an n×n×n bcc supercell as a continuous structure.
func bccStructure(n int, a float64) (pos [][3]float64, spec []lattice.Species, cell [3]float64) {
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				pos = append(pos, [3]float64{a * float64(x), a * float64(y), a * float64(z)})
				pos = append(pos, [3]float64{a * (float64(x) + 0.5), a * (float64(y) + 0.5), a * (float64(z) + 0.5)})
				spec = append(spec, lattice.Fe, lattice.Fe)
			}
		}
	}
	cell = [3]float64{a * float64(n), a * float64(n), a * float64(n)}
	return
}

// TestContinuousMatchesLatticeCount: on a perfect bcc crystal, each atom
// must see exactly 112 neighbours within 6.5 Å, matching the lattice
// path's N_local.
func TestContinuousMatchesLatticeCount(t *testing.T) {
	d := Standard(units.CutoffStandard)
	pos, _, cell := bccStructure(3, units.LatticeConstantFe)
	pairs := d.Pairs(pos, cell)
	perAtom := make([]int, len(pos))
	for _, p := range pairs {
		perAtom[p.I]++
		perAtom[p.J]++
	}
	for i, n := range perAtom {
		if n != 112 {
			t.Fatalf("atom %d has %d neighbours, want 112", i, n)
		}
	}
}

// TestContinuousFeaturesMatchTable: features of a perfect-lattice
// structure computed continuously must equal the tabulated lattice path.
func TestContinuousFeaturesMatchTable(t *testing.T) {
	a := units.LatticeConstantFe
	d := Standard(units.CutoffStandard)
	pos, spec, cell := bccStructure(3, a)
	feats := d.ComputeStructure(pos, spec, cell)

	// Lattice path: all-Fe box, pick any site; its feature vector is the
	// same as any continuous atom's (all sites equivalent, all Fe).
	tb := encoding.New(a, units.CutoffStandard)
	tab := NewTable(d, tb.Distances)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	// Use a non-central region site so its own neighbourhood is fully
	// inside the tables (site 1 is a 1NN of the origin — all its
	// neighbours are in CET by construction).
	want := make([]float64, d.Dim())
	ComputeSite(tb, tab, vet, 1, want)

	for c := range want {
		if math.Abs(feats[0][c]-want[c]) > 1e-9 {
			t.Fatalf("channel %d: continuous %v vs lattice %v", c, feats[0][c], want[c])
		}
	}
}

func TestForcesVanishOnPerfectLattice(t *testing.T) {
	a := units.LatticeConstantFe
	d := Standard(units.CutoffStandard)
	pos, spec, cell := bccStructure(2, a)
	// Arbitrary smooth feature gradient: same for every atom — by
	// symmetry, forces on a perfect lattice must vanish.
	featGrad := make([][]float64, len(pos))
	for i := range featGrad {
		featGrad[i] = make([]float64, d.Dim())
		for c := range featGrad[i] {
			featGrad[i][c] = 0.01 * float64(c%5)
		}
	}
	forces := d.ComputeForces(pos, spec, cell, featGrad)
	for i, f := range forces {
		for a := 0; a < 3; a++ {
			if math.Abs(f[a]) > 1e-9 {
				t.Fatalf("atom %d has spurious force %v", i, f)
			}
		}
	}
}

func TestForcesNewtonThirdLaw(t *testing.T) {
	a := units.LatticeConstantFe
	d := Standard(units.CutoffStandard)
	pos, spec, cell := bccStructure(2, a)
	// Randomly displace atoms and randomise gradients; total force must
	// still vanish (translation invariance / Newton's third law).
	r := rng.New(55)
	for i := range pos {
		for ax := 0; ax < 3; ax++ {
			pos[i][ax] += 0.05 * r.NormFloat64()
		}
	}
	featGrad := make([][]float64, len(pos))
	for i := range featGrad {
		featGrad[i] = make([]float64, d.Dim())
		for c := range featGrad[i] {
			featGrad[i][c] = r.NormFloat64()
		}
	}
	forces := d.ComputeForces(pos, spec, cell, featGrad)
	var net [3]float64
	for _, f := range forces {
		for ax := 0; ax < 3; ax++ {
			net[ax] += f[ax]
		}
	}
	for ax := 0; ax < 3; ax++ {
		if math.Abs(net[ax]) > 1e-9 {
			t.Fatalf("net force component %d = %v, want 0", ax, net[ax])
		}
	}
}

func TestPairsSymmetricInvariant(t *testing.T) {
	// Property: every pair's distance is within (0, rcut] and unit
	// vectors are normalised.
	d := Standard(6.5)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		pos, spec, cell := bccStructure(2, units.LatticeConstantFe)
		_ = spec
		for i := range pos {
			for ax := 0; ax < 3; ax++ {
				pos[i][ax] += 0.1 * r.NormFloat64()
			}
		}
		for _, p := range d.Pairs(pos, cell) {
			if p.R <= 0 || p.R > d.Rcut {
				return false
			}
			n := p.Unit[0]*p.Unit[0] + p.Unit[1]*p.Unit[1] + p.Unit[2]*p.Unit[2]
			if math.Abs(n-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Channel returns the feature index of (neighbour element, pq index).
func (d *Descriptor) Channel(el, pq int) int { return el*len(d.PQ) + pq }

// Row returns the tabulated channel values for distance index i.
func (t *Table) Row(i int) []float64 {
	nd := t.desc.NDim()
	return t.vals[i*nd : (i+1)*nd]
}
