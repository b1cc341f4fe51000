// Kernel and ablation benchmarks: the feature and NNP kernels, the
// design-choice ablations DESIGN.md lists, and the hop-energy path with
// and without the evaluation cache. `go test -bench=. -benchmem` runs them
// all and writes no file. The paper's tables and figures are rendered by
// cmd/tkmc-bench and pinned by the internal/experiments tests; run-level
// throughput is the bench/ ledger's.
package tensorkmc_test

import (
	"fmt"
	"testing"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/fusion"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sublattice"
	"tensorkmc/internal/sw"
	"tensorkmc/internal/units"
)

// --- Kernel benches -------------------------------------------------------------

// BenchmarkFeatureRegion measures the real fast-feature workload: the
// 1+8-state feature computation of one vacancy system (Sec. 3.4).
func BenchmarkFeatureRegion(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	tab := feature.NewTable(desc, tb.Distances)
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.1, 0.0, rng.New(5))
	center := lattice.Vec{X: 14, Y: 14, Z: 14}
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	out := make([]float64, tb.NRegion*desc.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 9; k++ {
			feature.ComputeRegion(tb, tab, vet, out)
		}
	}
	b.SetBytes(int64(9 * tb.NRegion * tb.NLocal * 6))
}

// BenchmarkNNPRegionEnergy measures one full region-energy evaluation
// with the production network (the per-state cost of Sec. 3.5).
func BenchmarkNNPRegionEnergy(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, nnp.StandardSizes, rng.New(6))
	ev := nnp.NewLatticeEvaluator(pot, tb)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.RegionEnergy(vet)
	}
}

// --- Ablation benches -------------------------------------------------------------

// BenchmarkAblationPropensityTree isolates event selection: the paper's
// sum-tree strategy vs a linear cumulative scan, at a propensity-table
// size typical of a large per-rank vacancy population.
func BenchmarkAblationPropensityTree(b *testing.B) {
	const n = 1 << 14
	weights := make([]float64, n)
	r := rng.New(14)
	for i := range weights {
		weights[i] = r.Float64() + 0.1
	}
	b.Run("tree", func(b *testing.B) {
		t := kmc.NewSumTree(n)
		for i, w := range weights {
			t.Update(i, w)
		}
		rr := rng.New(15)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot := t.Select(rr.Float64() * t.Total())
			t.Update(slot, rr.Float64()+0.1)
		}
	})
	b.Run("linear", func(b *testing.B) {
		w := append([]float64(nil), weights...)
		var total float64
		for _, v := range w {
			total += v
		}
		rr := rng.New(15)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			target := rr.Float64() * total
			var acc float64
			slot := n - 1
			for j, v := range w {
				acc += v
				if target < acc {
					slot = j
					break
				}
			}
			nv := rr.Float64() + 0.1
			total += nv - w[slot]
			w[slot] = nv
		}
	})
}

// BenchmarkAblationVacancyCache compares step cost with the vacancy cache
// enabled vs disabled (every step refills all VETs and rates).
func BenchmarkAblationVacancyCache(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts kmc.Options
	}{
		{"cached", kmc.Options{}},
		{"uncached", kmc.Options{DisableCache: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
			lattice.FillRandomAlloy(box, 0.02, 0.002, rng.New(16))
			tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
			eng := kmc.NewEngine(box, eam.NewRegionEvaluator(eam.New(eam.Default()), tb), units.ReactorTemperature, rng.New(17), mode.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := eng.Step(1e300); !ok {
					b.Fatal("exhausted")
				}
			}
		})
	}
}

// BenchmarkAblationFeatureTable compares the tabulated feature kernel
// (Eq. 6) against direct exponential evaluation (Eq. 5).
func BenchmarkAblationFeatureTable(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	tab := feature.NewTable(desc, tb.Distances)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	out := make([]float64, desc.Dim())
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feature.ComputeSite(tb, tab, vet, i%tb.NRegion, out)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feature.ComputeSiteDirect(tb, desc, vet, i%tb.NRegion, out)
		}
	})
}

// BenchmarkAblationIndexing compares the Eq. 4 direct index computation
// against the POS_ID lookup table it replaces (Sec. 3.3).
func BenchmarkAblationIndexing(b *testing.B) {
	dom := lattice.NewDomain(lattice.Vec{}, lattice.Vec{X: 20, Y: 20, Z: 20}, 9, units.LatticeConstantFe)
	ref := lattice.NewPosIDIndexer(dom)
	var sites []lattice.Vec
	dom.ForEachLocal(func(v lattice.Vec, _ int) { sites = append(sites, v) })
	b.Run("eq4-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dom.Index(sites[i%len(sites)])
		}
	})
	b.Run("posid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ref.Index(sites[i%len(sites)])
		}
	})
}

// BenchmarkAblationTstop probes the synchronisation-interval sensitivity
// the paper mentions (a larger t_stop cuts communication).
func BenchmarkAblationTstop(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	pot := eam.New(eam.Default())
	factory := func() kmc.Model { return eam.NewRegionEvaluator(pot, tb) }
	for _, tstop := range []float64{1e-8, 2e-8, 8e-8} {
		b.Run(fmt.Sprintf("tstop=%.0e", tstop), func(b *testing.B) {
			cfg := sublattice.Config{PX: 2, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: tstop, Seed: 18}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
				lattice.FillRandomAlloy(box, 0.02, 0.001, rng.New(19))
				b.StartTimer()
				_, _ = sublattice.Run(box, cfg, 8e-8, factory)
			}
		})
	}
}

// BenchmarkCPEFeatureOperator measures the functional Sec. 3.4 feature
// operator (CPE layout) against the MPE reference path, reporting the
// modelled Sunway times.
func BenchmarkCPEFeatureOperator(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	tab := feature.NewTable(desc, tb.Distances)
	op := fusion.NewFeatureOperator(tb, tab)
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.1, 0.0, rng.New(23))
	center := lattice.Vec{X: 14, Y: 14, Z: 14}
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	b.Run("cpe", func(b *testing.B) {
		var modelled float64
		for i := 0; i < b.N; i++ {
			cg := sw.NewCoreGroup(sw.SW26010Pro())
			op.Run(cg, vet)
			modelled = cg.Ct.Time(cg.Arch, true)
		}
		b.ReportMetric(modelled*1e6, "model-µs")
	})
	b.Run("mpe", func(b *testing.B) {
		var modelled float64
		for i := 0; i < b.N; i++ {
			cg := sw.NewCoreGroup(sw.MPE())
			op.RunMPE(cg, vet)
			modelled = cg.Ct.Time(cg.Arch, false)
		}
		b.ReportMetric(modelled*1e6, "model-µs")
	})
}

// --- Evaluation service benches ----------------------------------------
//
// BenchmarkHopEnergiesUncached / BenchmarkHopEnergiesCached measure the
// same recurring dilute-alloy workload against the direct NNP evaluator
// and against the shared evaluation service (content-addressed cache
// over the same kernel).

// evalBenchWorkload builds the shared fixture: a short-cutoff NNP and a
// recurring set of vacancy environments from a dilute Fe–Cu box — the
// production access pattern the cache exploits (Sec. 3.2).
func evalBenchWorkload(n int) (*nnp.Potential, *encoding.Tables, []encoding.VET) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	desc := feature.Standard(units.CutoffShort)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 32, 16, 1}, rng.New(40))
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.05, 0.0, rng.New(41))
	r := rng.New(42)
	vets := make([]encoding.VET, 0, n)
	for len(vets) < n {
		c := lattice.Vec{X: 2 * int(r.Uint64()%14), Y: 2 * int(r.Uint64()%14), Z: 2 * int(r.Uint64()%14)}
		old := box.Get(c)
		box.Set(c, lattice.Vacancy)
		vet := tb.NewVET()
		tb.FillVET(vet, c, box.Get)
		box.Set(c, old)
		vets = append(vets, vet)
	}
	return pot, tb, vets
}

func BenchmarkHopEnergiesUncached(b *testing.B) {
	pot, tb, vets := evalBenchWorkload(32)
	ev := nnp.NewLatticeEvaluator(pot, tb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.HopEnergies(vets[i%len(vets)])
	}
}

func BenchmarkHopEnergiesCached(b *testing.B) {
	pot, tb, vets := evalBenchWorkload(32)
	srv := evalserve.New(evalserve.NewFusionBackend(pot, tb, evalserve.F64), evalserve.Options{Capacity: 1 << 12})
	defer srv.Close()
	// Warm pass: the recurring environments enter the cache here, so the
	// timed loop measures the steady state the paper's cache targets.
	for _, vet := range vets {
		srv.HopEnergies(vet)
	}
	pre := srv.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.HopEnergies(vets[i%len(vets)])
	}
	b.StopTimer()
	st := srv.Stats()
	hits, misses := st.Hits-pre.Hits, st.Misses-pre.Misses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	b.ReportMetric(100*hitRate, "%hit")
}

// BenchmarkAblationFastHopEnergies compares the exact full-resummation
// hop evaluator against the incremental (delta-patched) one.
func BenchmarkAblationFastHopEnergies(b *testing.B) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	pot := eam.New(eam.Default())
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.1, 0.0, rng.New(30))
	center := lattice.Vec{X: 14, Y: 14, Z: 14}
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	b.Run("exact", func(b *testing.B) {
		ev := eam.NewRegionEvaluator(pot, tb)
		for i := 0; i < b.N; i++ {
			ev.HopEnergies(vet)
		}
	})
	b.Run("incremental", func(b *testing.B) {
		ev := eam.NewFastRegionEvaluator(pot, tb)
		for i := 0; i < b.N; i++ {
			ev.HopEnergies(vet)
		}
	})
}
