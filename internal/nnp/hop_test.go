package nnp

import (
	"fmt"
	"math"
	"testing"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// ninePassHopEnergies is the reference the incremental kernel must equal
// bit for bit: one full region pass for the initial state and one per open
// direction, each on a VET with the hop applied — HopEnergies as it was
// before it became incremental, a RegionEnergy pass per state.
func ninePassHopEnergies(p *Potential, tb *encoding.Tables, tab *feature.Table, vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	vet = append(encoding.VET(nil), vet...)
	initial = p.RegionEnergy(tb, tab, vet, nil)
	for k := 0; k < 8; k++ {
		if !vet[tb.NN1Index[k]].IsAtom() {
			continue
		}
		tb.ApplyHop(vet, k)
		final[k] = p.RegionEnergy(tb, tab, vet, nil)
		valid[k] = true
		tb.ApplyHop(vet, k)
	}
	return initial, final, valid
}

// hopCorpus generates vacancy environments directly as VETs: random
// fillings from pure Fe to 50 % Cu, with and without 3 % extra vacancies
// anywhere in the system, then on top of a Cu-rich filling a second
// vacancy on each 1NN site in turn, vacancies on sites of HopSites[k] and
// in the outer shell, Cu and Fe forced onto the 1NN sites (both kinds of
// mover), and all eight directions closed.
func hopCorpus(tb *encoding.Tables, seed uint64) []encoding.VET {
	r := rng.New(seed)
	random := func(cu, vac float64) encoding.VET {
		vet := tb.NewVET()
		for i := range vet {
			switch u := r.Float64(); {
			case u < vac:
				vet[i] = lattice.Vacancy
			case u < vac+cu:
				vet[i] = lattice.Cu
			default:
				vet[i] = lattice.Fe
			}
		}
		vet[0] = lattice.Vacancy
		return vet
	}
	var out []encoding.VET
	for _, cu := range []float64{0, 0.02, 0.1, 0.3, 0.5} {
		for _, vac := range []float64{0, 0.03} {
			for n := 0; n < 3; n++ {
				out = append(out, random(cu, vac))
			}
		}
	}
	for k := 0; k < 8; k++ {
		vet := random(0.3, 0)
		vet[tb.NN1Index[k]] = lattice.Vacancy
		out = append(out, vet)

		vet = random(0.3, 0)
		hs := tb.HopSites[k]
		for _, h := range []encoding.HopSite{hs[0], hs[len(hs)/2], hs[len(hs)-1]} {
			vet[h.Site] = lattice.Vacancy
		}
		vet[tb.NRegion+int(r.Uint64()%uint64(tb.NOut))] = lattice.Vacancy
		out = append(out, vet)

		vet = random(0.3, 0)
		for j, nn := range tb.NN1Index {
			vet[nn] = lattice.Fe
			if (j+k)%2 == 0 {
				vet[nn] = lattice.Cu
			}
		}
		out = append(out, vet)
	}
	closed := random(0.3, 0)
	for _, nn := range tb.NN1Index {
		closed[nn] = lattice.Vacancy
	}
	return append(out, closed)
}

// hopTestPotential is a seeded potential with non-trivial normalisation
// and reference energies, so every term of the per-atom energy is
// exercised.
func hopTestPotential(rcut float64, seed uint64) (*Potential, *encoding.Tables, *feature.Table) {
	return hopTestPotentialPQ(rcut, feature.StandardPQ(), seed)
}

// hopTestPotentialPQ is hopTestPotential over the given (p, q) sets.
func hopTestPotentialPQ(rcut float64, pq []feature.PQ, seed uint64) (*Potential, *encoding.Tables, *feature.Table) {
	tb := encoding.New(units.LatticeConstantFe, rcut)
	desc := feature.NewDescriptor(pq, lattice.NumElements, rcut)
	pot := NewPotential(desc, []int{desc.Dim(), 16, 8, 1}, rng.New(seed))
	pot.ERef = [2]float64{-4.013, -3.54}
	pot.FeatMean = make([]float64, desc.Dim())
	pot.FeatStd = make([]float64, desc.Dim())
	for c := range pot.FeatMean {
		pot.FeatMean[c] = 0.25 + 0.03125*float64(c%7)
		pot.FeatStd[c] = 1.5 + 0.0625*float64(c%5)
	}
	return pot, tb, feature.NewTable(desc, tb.Distances)
}

// TestHopEnergiesMatchesRegionPasses: the incremental kernel equals the
// nine-pass reference in every bit — initial, final and valid — over the
// generated corpus, at the standard and a short cutoff, and leaves the
// caller's VET untouched. Both row-staging paths run: the AVX2 kernel
// (where the host has it) for the 32-channel normalised potentials, the
// pure-Go path for one without normalisation and one with 24 channels. A
// system with eight open directions and no other vacancy forwards
// NRegion−1 + 8·(len(HopSites)+1) rows, padding rows not counted: 1396
// at 6.5 Å, against 2268 for nine full passes.
func TestHopEnergiesMatchesRegionPasses(t *testing.T) {
	cases := []struct {
		name string
		rcut float64
		nPQ  int
		norm bool
	}{
		{"standard", units.CutoffStandard, 32, true},
		{"short cutoff", units.CutoffShort, 32, true},
		{"no normalisation", units.CutoffStandard, 32, false},
		{"24 channels", units.CutoffStandard, 24, true},
	}
	for _, c := range cases {
		pot, tb, tab := hopTestPotentialPQ(c.rcut, feature.StandardPQ()[:c.nPQ], 31)
		if !c.norm {
			pot.FeatMean, pot.FeatStd = nil, nil
		}
		s := pot.NewScratch(tb)
		movers := map[lattice.Species]int{}
		for n, vet := range hopCorpus(tb, 32) {
			before := append(encoding.VET(nil), vet...)
			wi, wf, wv := ninePassHopEnergies(pot, tb, tab, vet)
			gi, gf, gv, rows := pot.HopEnergies(tb, tab, vet, s)
			if want := useAVX2 && c.norm && c.nPQ == stageChannels; s.simd != want {
				t.Fatalf("%s: staged with the AVX2 kernel %v, want %v", c.name, s.simd, want)
			}
			if math.Float64bits(gi) != math.Float64bits(wi) || gv != wv {
				t.Fatalf("%s env %d: initial %v valid %v, nine passes give %v %v", c.name, n, gi, gv, wi, wv)
			}
			for k := 0; k < 8; k++ {
				if math.Float64bits(gf[k]) != math.Float64bits(wf[k]) {
					t.Fatalf("%s env %d: final[%d] = %v, nine passes give %v", c.name, n, k, gf[k], wf[k])
				}
			}
			atoms, open := 0, 0
			for i := 0; i < tb.NRegion; i++ {
				if vet[i].IsAtom() {
					atoms++
				}
			}
			for k := 0; k < 8; k++ {
				if gv[k] {
					open++
					movers[vet[tb.NN1Index[k]]]++
				}
			}
			if full := atoms == tb.NRegion-1 && open == 8; full {
				if want := tb.NRegion - 1 + 8*(len(tb.HopSites[0])+1); rows != want {
					t.Fatalf("%s env %d: %d rows forwarded, want %d", c.name, n, rows, want)
				}
				if c.rcut == units.CutoffStandard && rows != 1396 {
					t.Fatalf("%s env %d: %d rows at 6.5 Å, want 1396", c.name, n, rows)
				}
			} else if rows >= 9*atoms {
				t.Fatalf("%s env %d: %d rows forwarded for %d atoms", c.name, n, rows, atoms)
			}
			for i := range vet {
				if vet[i] != before[i] {
					t.Fatalf("%s env %d: HopEnergies changed VET[%d]", c.name, n, i)
				}
			}
		}
		if movers[lattice.Fe] == 0 || movers[lattice.Cu] == 0 {
			t.Fatalf("corpus movers %v: need both Fe and Cu", movers)
		}
	}
}

// BenchmarkHopEnergies times the hop kernel with the trained fixture
// potential on random one-vacancy environments at 0 %, 1.34 % (every
// ledger NNP deck) and 20 % Cu.
func BenchmarkHopEnergies(b *testing.B) {
	pot, err := LoadFile("../../bench/fixtures/fecu.pot")
	if err != nil {
		b.Fatal(err)
	}
	tb := encoding.New(units.LatticeConstantFe, pot.Desc.Rcut)
	tab := feature.NewTable(pot.Desc, tb.Distances)
	for _, cu := range []float64{0, 0.0134, 0.2} {
		b.Run(fmt.Sprintf("cu=%g", cu), func(b *testing.B) {
			r := rng.New(35)
			vets := make([]encoding.VET, 64)
			for n := range vets {
				vets[n] = tb.NewVET()
				for i := range vets[n] {
					vets[n][i] = lattice.Fe
					if r.Float64() < cu {
						vets[n][i] = lattice.Cu
					}
				}
				vets[n][0] = lattice.Vacancy
			}
			s := pot.NewScratch(tb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hopSink, _, _, _ = pot.HopEnergies(tb, tab, vets[i%len(vets)], s)
			}
		})
	}
}

// hopSink keeps BenchmarkHopEnergies' calls from being optimised away.
var hopSink float64

// TestHopEnergiesAllocatesNothing: the evaluator's scratch covers the
// whole kernel.
func TestHopEnergiesAllocatesNothing(t *testing.T) {
	pot, tb, _ := hopTestPotential(units.CutoffStandard, 33)
	ev := NewLatticeEvaluator(pot, tb)
	vets := hopCorpus(tb, 34)
	i := 0
	if n := testing.AllocsPerRun(20, func() {
		ev.HopEnergies(vets[i%len(vets)])
		i++
	}); n != 0 {
		t.Fatalf("LatticeEvaluator.HopEnergies allocates %v times per call", n)
	}
}
