package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// checkpointBytes runs the simulation and returns its final TKMCBOX2
// checkpoint image — box, clock, hop count and RNG state — so two runs
// can be compared byte for byte.
func checkpointBytes(t *testing.T, cfg Config, duration float64) []byte {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(duration, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "final.tkmcbox")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := s.EvalStats(); ok {
		t.Logf("%s", st.String())
		if st.Hits+st.Misses == 0 {
			t.Fatal("evaluation service enabled but never consulted")
		}
	}
	return raw
}

// TestEvalCacheBitIdentical is the subsystem's acceptance contract: a
// dilute Fe–Cu run through the evaluation service (cache + backend) must
// produce a byte-identical final checkpoint — same trajectory, same
// clock, same RNG state — as the direct uncached run.
func TestEvalCacheBitIdentical(t *testing.T) {
	base := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002,
		Seed: 42,
	}
	const duration = 4e-7

	plain := checkpointBytes(t, base, duration)

	cached := base
	cached.EvalCache = 1 << 12
	served := checkpointBytes(t, cached, duration)

	if !bytes.Equal(plain, served) {
		t.Fatal("cached run's final checkpoint differs from the uncached run")
	}
}

// TestEvalCacheBitIdenticalNNP repeats the contract on the NNP path
// (FusionBackend, f64).
func TestEvalCacheBitIdenticalNNP(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 12, 1}, rng.New(9))
	base := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.02, VacancyFraction: 0.001,
		Seed: 11, Potential: NNP, Net: pot,
	}
	const duration = 1e-7

	plain := checkpointBytes(t, base, duration)

	cached := base
	cached.EvalCache = 1 << 12
	served := checkpointBytes(t, cached, duration)

	if !bytes.Equal(plain, served) {
		t.Fatal("fused NNP cached run diverged from the direct run")
	}
}

// TestEvalCacheNNPAdjacentVacancies: the same contract where it used to
// break — two vacancies that start as first nearest neighbours, so each
// system has a closed hop direction from the first evaluation on (the
// fused backend once shifted every later direction down by one).
func TestEvalCacheNNPAdjacentVacancies(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 12, 1}, rng.New(9))
	box := lattice.NewBox(10, 10, 10, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.02, 0, rng.New(11))
	box.Set(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Vacancy)
	box.Set(lattice.Vec{X: 5, Y: 5, Z: 3}, lattice.Vacancy)
	base := Config{InitialBox: box, Seed: 11, Potential: NNP, Net: pot}
	const duration = 1e-7

	plain := checkpointBytes(t, base, duration)

	cached := base
	cached.EvalCache = 1 << 12
	served := checkpointBytes(t, cached, duration)

	if !bytes.Equal(plain, served) {
		t.Fatal("fused NNP cached run with adjacent vacancies diverged from the direct run")
	}
}

// TestEvalCacheParallelShared: the parallel engine's ranks share one
// service; the run must complete and the counters must show traffic.
func TestEvalCacheParallelShared(t *testing.T) {
	s, err := New(Config{
		Cells: [3]int{16, 16, 16}, CuFraction: 0.03, VacancyFraction: 0.001,
		Seed: 5, Ranks: [3]int{2, 1, 1}, EvalCache: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Run(5e-8, nil); err != nil {
		t.Fatal(err)
	}
	st, ok := s.EvalStats()
	if !ok {
		t.Fatal("evaluation service not enabled")
	}
	if st.Misses == 0 {
		t.Fatalf("parallel ranks never reached the shared service: %+v", st)
	}
	s.Close()
	s.Close() // idempotent
}
