package nnp

import (
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
	tb := encoding.New(units.LatticeConstantFe, rcut)
	desc := feature.Standard(rcut)
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
// caller's VET untouched. A system with eight open directions and no
// other vacancy forwards NRegion−1 + 8·(len(HopSites)+1) rows: 1396 at
// 6.5 Å, against 2268 for nine full passes.
func TestHopEnergiesMatchesRegionPasses(t *testing.T) {
	for _, rcut := range []float64{units.CutoffStandard, units.CutoffShort} {
		pot, tb, tab := hopTestPotential(rcut, 31)
		s := pot.NewScratch(tb)
		movers := map[lattice.Species]int{}
		for n, vet := range hopCorpus(tb, 32) {
			before := append(encoding.VET(nil), vet...)
			wi, wf, wv := ninePassHopEnergies(pot, tb, tab, vet)
			gi, gf, gv, rows := pot.HopEnergies(tb, tab, vet, s)
			if math.Float64bits(gi) != math.Float64bits(wi) || gv != wv {
				t.Fatalf("rcut %v env %d: initial %v valid %v, nine passes give %v %v", rcut, n, gi, gv, wi, wv)
			}
			for k := 0; k < 8; k++ {
				if math.Float64bits(gf[k]) != math.Float64bits(wf[k]) {
					t.Fatalf("rcut %v env %d: final[%d] = %v, nine passes give %v", rcut, n, k, gf[k], wf[k])
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
					t.Fatalf("rcut %v env %d: %d rows forwarded, want %d", rcut, n, rows, want)
				}
				if rcut == units.CutoffStandard && rows != 1396 {
					t.Fatalf("env %d: %d rows at 6.5 Å, want 1396", n, rows)
				}
			} else if rows >= 9*atoms {
				t.Fatalf("rcut %v env %d: %d rows forwarded for %d atoms", rcut, n, rows, atoms)
			}
			for i := range vet {
				if vet[i] != before[i] {
					t.Fatalf("rcut %v env %d: HopEnergies changed VET[%d]", rcut, n, i)
				}
			}
		}
		if movers[lattice.Fe] == 0 || movers[lattice.Cu] == 0 {
			t.Fatalf("corpus movers %v: need both Fe and Cu", movers)
		}
	}
}

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
