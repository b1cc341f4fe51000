package eam

import (
	"math"
	"testing"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

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

func TestCutoffWindow(t *testing.T) {
	p := New(Default())
	if p.fc(1.0) != 1 || p.fc(p.P.RCut) != 0 || p.fc(10) != 0 {
		t.Fatal("cutoff window endpoints wrong")
	}
	mid := p.fc((p.P.RIn + p.P.RCut) / 2)
	if math.Abs(mid-0.5) > 1e-12 {
		t.Fatalf("cutoff midpoint = %v, want 0.5", mid)
	}
	// Monotone decreasing on the taper.
	prev := 1.0
	for r := p.P.RIn; r <= p.P.RCut; r += 0.01 {
		v := p.fc(r)
		if v > prev+1e-12 {
			t.Fatal("cutoff not monotone")
		}
		prev = v
	}
}

func TestPairShape(t *testing.T) {
	p := New(Default())
	// Minimum at r0 with depth −ε (fc = 1 there since r0 < RIn).
	min := p.Pair(lattice.Fe, lattice.Fe, p.P.R0)
	if math.Abs(min+p.P.Epsilon[lattice.Fe][lattice.Fe]) > 1e-12 {
		t.Fatalf("pair minimum = %v, want %v", min, -p.P.Epsilon[lattice.Fe][lattice.Fe])
	}
	if d := p.PairDeriv(lattice.Fe, lattice.Fe, p.P.R0); math.Abs(d) > 1e-12 {
		t.Fatalf("pair derivative at minimum = %v, want 0", d)
	}
	// Strong repulsion well inside the core, zero beyond cutoff.
	if p.Pair(lattice.Fe, lattice.Fe, 1.2) <= 0 {
		t.Fatal("no core repulsion")
	}
	if p.Pair(lattice.Fe, lattice.Fe, 7.0) != 0 {
		t.Fatal("pair nonzero beyond cutoff")
	}
	if p.Pair(lattice.Fe, lattice.Cu, 2.5) != p.Pair(lattice.Cu, lattice.Fe, 2.5) {
		t.Fatal("pair not symmetric in elements")
	}
}

func TestDerivativesMatchNumerical(t *testing.T) {
	p := New(Default())
	const h = 1e-6
	for _, r := range []float64{1.8, 2.485, 3.3, 5.2, 6.1} {
		numPair := (p.Pair(lattice.Fe, lattice.Cu, r+h) - p.Pair(lattice.Fe, lattice.Cu, r-h)) / (2 * h)
		if got := p.PairDeriv(lattice.Fe, lattice.Cu, r); math.Abs(got-numPair) > 1e-6*(1+math.Abs(numPair)) {
			t.Fatalf("PairDeriv(%v) = %v, numeric %v", r, got, numPair)
		}
		numDens := (p.Density(lattice.Cu, r+h) - p.Density(lattice.Cu, r-h)) / (2 * h)
		if got := p.DensityDeriv(lattice.Cu, r); math.Abs(got-numDens) > 1e-6*(1+math.Abs(numDens)) {
			t.Fatalf("DensityDeriv(%v) = %v, numeric %v", r, got, numDens)
		}
	}
	for _, rho := range []float64{0.5, 2.0, 9.0} {
		num := (p.Embed(rho+h) - p.Embed(rho-h)) / (2 * h)
		if got := p.EmbedDeriv(rho); math.Abs(got-num) > 1e-6 {
			t.Fatalf("EmbedDeriv(%v) = %v, numeric %v", rho, got, num)
		}
	}
}

// TestCuClusteringFavourable pins the thermodynamic driver of the
// application experiment: bringing two Cu solutes from separated to
// adjacent 1NN positions must lower the total energy, otherwise no
// precipitation can occur.
func TestCuClusteringFavourable(t *testing.T) {
	p := New(Default())
	a := units.LatticeConstantFe
	pos, spec, cell := bccStructure(4, a)
	// Adjacent: atoms 0 (corner 0,0,0) and 1 (centre a/2,a/2,a/2).
	adj := append([]lattice.Species(nil), spec...)
	adj[0], adj[1] = lattice.Cu, lattice.Cu
	eAdj := p.StructureEnergy(pos, adj, cell)
	// Separated: corner (0,0,0) and a distant corner.
	sep := append([]lattice.Species(nil), spec...)
	far := 2 * (4*4 + 4) // index of cell (2,2,0) corner atom
	sep[0], sep[far] = lattice.Cu, lattice.Cu
	eSep := p.StructureEnergy(pos, sep, cell)
	if eAdj >= eSep {
		t.Fatalf("Cu clustering not favourable: adjacent %v >= separated %v", eAdj, eSep)
	}
	// The binding should be a modest fraction of an eV so barriers stay
	// physical.
	bind := eSep - eAdj
	if bind > 0.6 {
		t.Fatalf("Cu–Cu binding %v eV implausibly strong", bind)
	}
}

func TestStructureForcesMatchNumerical(t *testing.T) {
	p := New(Default())
	a := units.LatticeConstantFe
	pos, spec, cell := bccStructure(2, a)
	r := rng.New(42)
	for i := range pos {
		for ax := 0; ax < 3; ax++ {
			pos[i][ax] += 0.04 * r.NormFloat64()
		}
		if r.Float64() < 0.25 {
			spec[i] = lattice.Cu
		}
	}
	forces := p.StructureForces(pos, spec, cell)
	const h = 1e-6
	for _, i := range []int{0, 5, 9, 15} {
		for ax := 0; ax < 3; ax++ {
			orig := pos[i][ax]
			pos[i][ax] = orig + h
			ep := p.StructureEnergy(pos, spec, cell)
			pos[i][ax] = orig - h
			em := p.StructureEnergy(pos, spec, cell)
			pos[i][ax] = orig
			num := -(ep - em) / (2 * h)
			if math.Abs(num-forces[i][ax]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("atom %d axis %d: analytic %v vs numeric %v", i, ax, forces[i][ax], num)
			}
		}
	}
}

func TestForcesVanishOnPerfectLattice(t *testing.T) {
	p := New(Default())
	pos, spec, cell := bccStructure(2, units.LatticeConstantFe)
	for _, f := range p.StructureForces(pos, spec, cell) {
		for ax := 0; ax < 3; ax++ {
			if math.Abs(f[ax]) > 1e-10 {
				t.Fatalf("spurious force %v on perfect lattice", f)
			}
		}
	}
}

// TestRegionEvaluatorMatchesContinuous validates the tabulated lattice
// path against the continuous path: the energy CHANGE of a vacancy hop
// computed from region sums must equal the change of the full-structure
// energy computed continuously.
func TestRegionEvaluatorMatchesContinuous(t *testing.T) {
	p := New(Default())
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	ev := NewRegionEvaluator(p, tb)

	a := units.LatticeConstantFe
	const n = 12
	box := lattice.NewBox(n, n, n, a)
	lattice.FillRandomAlloy(box, 0.15, 0.0, rng.New(7))
	center := lattice.Vec{X: n, Y: n, Z: n}
	box.Set(center, lattice.Vacancy)

	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	initial, final, valid := ev.HopEnergies(vet)

	// Continuous reference: enumerate the full box as a structure.
	makeStructure := func(b *lattice.Box) ([][3]float64, []lattice.Species) {
		var pos [][3]float64
		var spec []lattice.Species
		for i := 0; i < b.NumSites(); i++ {
			s := b.GetIndex(i)
			if !s.IsAtom() {
				continue
			}
			v := b.SiteAt(i)
			pos = append(pos, [3]float64{0.5 * a * float64(v.X), 0.5 * a * float64(v.Y), 0.5 * a * float64(v.Z)})
			spec = append(spec, s)
		}
		return pos, spec
	}
	cell := [3]float64{a * n, a * n, a * n}
	posI, specI := makeStructure(box)
	eFullI := p.StructureEnergy(posI, specI, cell)

	for k := 0; k < 8; k++ {
		if !valid[k] {
			t.Fatalf("hop %d unexpectedly invalid", k)
		}
		hopped := box.Clone()
		nn := center.Add(lattice.NN1[k])
		moved := hopped.Get(nn)
		hopped.Set(center, moved)
		hopped.Set(nn, lattice.Vacancy)
		posF, specF := makeStructure(hopped)
		eFullF := p.StructureEnergy(posF, specF, cell)
		wantDelta := eFullF - eFullI
		gotDelta := final[k] - initial
		if math.Abs(gotDelta-wantDelta) > 1e-8*(1+math.Abs(wantDelta)) {
			t.Fatalf("hop %d: region ΔE %v vs continuous ΔE %v", k, gotDelta, wantDelta)
		}
	}
}

func TestRegionEvaluatorPureFeSymmetry(t *testing.T) {
	p := New(Default())
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	ev := NewRegionEvaluator(p, tb)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	initial, final, valid := ev.HopEnergies(vet)
	for k := 0; k < 8; k++ {
		if !valid[k] {
			t.Fatalf("hop %d invalid", k)
		}
		if math.Abs(final[k]-initial) > 1e-9 {
			t.Fatalf("pure-Fe hop %d changed energy by %v", k, final[k]-initial)
		}
	}
}

func TestSiteEVERConsistency(t *testing.T) {
	p := New(Default())
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	ev := NewRegionEvaluator(p, tb)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	for _, i := range []int{1, 10, 100} {
		evv, err_ := ev.SiteEVER(vet, i)
		want := 0.5*evv + p.Embed(err_)
		if got := ev.SiteEnergy(vet, i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("SiteEnergy inconsistent with Eq. 7 at site %d", i)
		}
	}
	if e := ev.SiteEnergy(vet, 0); e != 0 {
		t.Fatalf("vacancy site energy = %v, want 0", e)
	}
}

func TestNewPanicsOnBadCutoffs(t *testing.T) {
	bad := Default()
	bad.RIn = 7.0 // beyond RCut
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(bad)
}

func TestRegionEvaluatorRejectsWideCutoff(t *testing.T) {
	p := New(Default())
	tb := encoding.New(units.LatticeConstantFe, 5.8) // tables narrower than potential
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegionEvaluator(p, tb)
}

// TestFastEvaluatorMatchesExact: the incremental hop evaluator must agree
// with the exact full-resummation evaluator to floating-point noise on
// random alloy environments.
func TestFastEvaluatorMatchesExact(t *testing.T) {
	p := New(Default())
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	exact := NewRegionEvaluator(p, tb)
	fast := NewFastRegionEvaluator(p, tb)
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	r := rng.New(71)
	lattice.FillRandomAlloy(box, 0.25, 0.002, r)
	for trial := 0; trial < 20; trial++ {
		// Random vacancy centre.
		var center lattice.Vec
		for {
			i := r.Intn(box.NumSites())
			center = box.SiteAt(i)
			if box.GetIndex(i).IsAtom() {
				box.Types()[i] = lattice.Vacancy
				break
			}
		}
		vet := tb.NewVET()
		tb.FillVET(vet, center, box.Get)
		ei, fi, vi := exact.HopEnergies(vet)
		ef, ff, vf := fast.HopEnergies(vet)
		if ei != ef {
			t.Fatalf("trial %d: initial energies differ: %v vs %v", trial, ei, ef)
		}
		for k := 0; k < 8; k++ {
			if vi[k] != vf[k] {
				t.Fatalf("trial %d hop %d: validity differs", trial, k)
			}
			if !vi[k] {
				continue
			}
			if math.Abs(fi[k]-ff[k]) > 1e-10*(1+math.Abs(fi[k])) {
				t.Fatalf("trial %d hop %d: exact %v vs fast %v (Δ=%v)",
					trial, k, fi[k], ff[k], fi[k]-ff[k])
			}
		}
		box.Set(center, lattice.Fe) // restore an atom and move on
	}
}

// TestFastEvaluatorEngineTrajectory: a KMC engine driven by the fast
// evaluator must reproduce the exact evaluator's trajectory (rate
// differences are ~1e-14 relative — far below selection thresholds).
func TestFastEvaluatorEngineTrajectory(t *testing.T) {
	p := New(Default())
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	mkBox := func() *lattice.Box {
		box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
		lattice.FillRandomAlloy(box, 0.08, 0.002, rng.New(72))
		return box
	}
	boxA, boxB := mkBox(), mkBox()
	a := kmc.NewEngine(boxA, NewRegionEvaluator(p, tb), units.ReactorTemperature, rng.New(73), kmc.Options{})
	b := kmc.NewEngine(boxB, NewFastRegionEvaluator(p, tb), units.ReactorTemperature, rng.New(73), kmc.Options{})
	for i := 0; i < 150; i++ {
		evA, okA := a.Step(1e300)
		evB, okB := b.Step(1e300)
		if okA != okB || evA.From != evB.From || evA.To != evB.To {
			t.Fatalf("step %d: fast evaluator diverged", i)
		}
	}
	if !boxA.Equal(boxB) {
		t.Fatal("final configurations differ")
	}
}

func TestFastEvaluatorPureFeSymmetry(t *testing.T) {
	p := New(Default())
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	fast := NewFastRegionEvaluator(p, tb)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	initial, final, valid := fast.HopEnergies(vet)
	for k := 0; k < 8; k++ {
		if !valid[k] || math.Abs(final[k]-initial) > 1e-10 {
			t.Fatalf("pure-Fe hop %d: ΔE = %v", k, final[k]-initial)
		}
	}
}

// TestDivacancyBinding pins the multi-vacancy physics the engine exposes:
// two adjacent vacancies share broken bonds, so the bound (1NN) divacancy
// has lower energy than two well-separated vacancies — the origin of the
// vacancy clustering (and mutual trapping) seen in long runs.
func TestDivacancyBinding(t *testing.T) {
	p := New(Default())
	a := units.LatticeConstantFe
	const n = 8
	energyWithVacanciesAt := func(sites ...lattice.Vec) float64 {
		box := lattice.NewBox(n, n, n, a)
		for _, v := range sites {
			box.Set(v, lattice.Vacancy)
		}
		var pos [][3]float64
		var spec []lattice.Species
		for i := 0; i < box.NumSites(); i++ {
			s := box.GetIndex(i)
			if !s.IsAtom() {
				continue
			}
			pos = append(pos, box.PositionOf(i, a))
			spec = append(spec, s)
		}
		return p.StructureEnergy(pos, spec, [3]float64{a * n, a * n, a * n})
	}
	bound := energyWithVacanciesAt(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Vec{X: 5, Y: 5, Z: 5})
	apart := energyWithVacanciesAt(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Vec{X: 12, Y: 12, Z: 12})
	binding := apart - bound
	if binding <= 0 {
		t.Fatalf("divacancy not bound: E_1NN=%v >= E_far=%v", bound, apart)
	}
	if binding > 1.0 {
		t.Fatalf("divacancy binding %v eV implausibly strong", binding)
	}
	t.Logf("divacancy 1NN binding energy: %.3f eV", binding)
}
