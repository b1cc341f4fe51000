package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tensorkmc/internal/feature"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// goldenNNP is the potential of the NNP golden cases: seeded heads (no
// file dependency) with non-trivial normalisation and reference energies,
// so every term of the per-atom energy takes part in the pinned bytes.
func goldenNNP() *nnp.Potential {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 16, 8, 1}, rng.New(9))
	pot.ERef = [2]float64{-4.013, -3.54}
	pot.FeatMean = make([]float64, desc.Dim())
	pot.FeatStd = make([]float64, desc.Dim())
	for c := range pot.FeatMean {
		pot.FeatMean[c] = 0.25 + 0.03125*float64(c%7)
		pot.FeatStd[c] = 1.5 + 0.0625*float64(c%5)
	}
	return pot
}

// TestGoldenTrajectories pins the SHA-256 of the final TKMCBOX2 image of
// small EAM and NNP runs as literals. Every other byte-identity test in
// the repository compares the code with itself (cache on vs off, restart
// vs straight-through); these compare it with the bytes an earlier
// commit produced, so a hot-path refactor that moves one RNG draw, slot
// or species byte fails here under its own name. A change that is meant
// to alter trajectories must say so and replace the literals.
func TestGoldenTrajectories(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		duration float64
		hops     int64
		sha      string
	}{
		{
			// The paper's regime: one vacancy, so exactly one refill and
			// one refresh per hop and no cache patches.
			name:     "serial_one_vacancy",
			cfg:      Config{Cells: [3]int{8, 8, 8}, CuFraction: 0.0134, VacancyFraction: 0.001, Seed: 11},
			duration: 3e-6,
			hops:     goldenHopsOneVacancy,
			sha:      goldenSHAOneVacancy,
		},
		{
			// 21 vacancies in a 5×6×7-cell box: periods 10/12/14 against
			// a VET that spans 19 half-units, so every vacancy system
			// wraps every periodic boundary (and holds several images of
			// one site), and neighbouring vacancies patch each other's
			// cached VETs on every hop. Unequal axes catch an Nx/Ny/Nz
			// mix-up in index arithmetic.
			name:     "serial_cu_rich_wrapped",
			cfg:      Config{Cells: [3]int{5, 6, 7}, CuFraction: 0.2, VacancyFraction: 0.05, Temperature: 1000, Seed: 12},
			duration: 4e-8,
			hops:     goldenHopsCuRich,
			sha:      goldenSHACuRich,
		},
		{
			// Two sublattice ranks; the undivided axes are shorter than
			// the ghost shell, so ghost regions hold two images of one
			// site and remote changes patch local systems.
			name:     "ranks_2_1_1",
			cfg:      Config{Cells: [3]int{12, 6, 8}, CuFraction: 0.05, VacancyFraction: 0.01, Temperature: 1000, Seed: 13, Ranks: [3]int{2, 1, 1}, TStop: 1e-10},
			duration: 6e-8,
			hops:     goldenHopsRanks,
			sha:      goldenSHARanks,
		},
		{
			// NNP on the direct path, one vacancy: nine region energies
			// per hop straight from nnp.Potential.HopEnergies.
			name:     "nnp_one_vacancy",
			cfg:      Config{Cells: [3]int{8, 8, 8}, CuFraction: 0.0134, VacancyFraction: 0.001, Temperature: 1000, Seed: 14, Potential: NNP, Net: goldenNNP()},
			duration: goldenNNPDurationOneVacancy,
			hops:     goldenHopsNNPOneVacancy,
			sha:      goldenSHANNPOneVacancy,
		},
		{
			// Cu-rich, 21 vacancies in the 5×6×7 box at 1000 K: VETs wrap,
			// vacancies meet (closed hop directions, vacancies inside each
			// other's regions and outer shells), Cu and Fe both move.
			name:     "nnp_cu_rich_wrapped",
			cfg:      Config{Cells: [3]int{5, 6, 7}, CuFraction: 0.2, VacancyFraction: 0.05, Temperature: 1000, Seed: 15, Potential: NNP, Net: goldenNNP()},
			duration: goldenNNPDurationCuRich,
			hops:     goldenHopsNNPCuRich,
			sha:      goldenSHANNPCuRich,
		},
		{
			// The same deck through evalserve.Server + FusionBackend: the
			// literal is the direct one's, by the service's contract.
			name:     "nnp_cu_rich_wrapped_cached",
			cfg:      Config{Cells: [3]int{5, 6, 7}, CuFraction: 0.2, VacancyFraction: 0.05, Temperature: 1000, Seed: 15, Potential: NNP, Net: goldenNNP(), EvalCache: 1 << 12},
			duration: goldenNNPDurationCuRich,
			hops:     goldenHopsNNPCuRich,
			sha:      goldenSHANNPCuRich,
		},
		{
			name:     "nnp_ranks_2_1_1",
			cfg:      Config{Cells: [3]int{12, 6, 8}, CuFraction: 0.05, VacancyFraction: 0.01, Temperature: 1000, Seed: 16, Ranks: [3]int{2, 1, 1}, TStop: 1e-10, Potential: NNP, Net: goldenNNP()},
			duration: goldenNNPDurationRanks,
			hops:     goldenHopsNNPRanks,
			sha:      goldenSHANNPRanks,
		},
		{
			// Eight sublattice ranks, NNP direct: each rank owns a private
			// evaluator.
			name:     "nnp_ranks_2_2_2",
			cfg:      Config{Cells: [3]int{12, 12, 12}, CuFraction: 0.05, VacancyFraction: 0.005, Temperature: 1000, Seed: 17, Ranks: [3]int{2, 2, 2}, TStop: 1e-10, Potential: NNP, Net: goldenNNP()},
			duration: goldenNNPDurationRanks8,
			hops:     goldenHopsNNPRanks8,
			sha:      goldenSHANNPRanks8,
		},
		{
			// The same deck with all eight ranks calling one shared
			// evalserve.Server concurrently (cache, single-flight,
			// FusionBackend): the direct literal, by the service's contract.
			name:     "nnp_ranks_2_2_2_cached",
			cfg:      Config{Cells: [3]int{12, 12, 12}, CuFraction: 0.05, VacancyFraction: 0.005, Temperature: 1000, Seed: 17, Ranks: [3]int{2, 2, 2}, TStop: 1e-10, Potential: NNP, Net: goldenNNP(), EvalCache: 1 << 12},
			duration: goldenNNPDurationRanks8,
			hops:     goldenHopsNNPRanks8,
			sha:      goldenSHANNPRanks8,
		},
		{
			// EAM on eight ranks, direct, and below through one shared
			// Server over the ModelBackend pool.
			name:     "eam_ranks_2_2_2",
			cfg:      Config{Cells: [3]int{12, 12, 12}, CuFraction: 0.05, VacancyFraction: 0.005, Temperature: 1000, Seed: 18, Ranks: [3]int{2, 2, 2}, TStop: 1e-10},
			duration: 6e-8,
			hops:     goldenHopsEAMRanks8,
			sha:      goldenSHAEAMRanks8,
		},
		{
			name:     "eam_ranks_2_2_2_cached",
			cfg:      Config{Cells: [3]int{12, 12, 12}, CuFraction: 0.05, VacancyFraction: 0.005, Temperature: 1000, Seed: 18, Ranks: [3]int{2, 2, 2}, TStop: 1e-10, EvalCache: 1 << 12},
			duration: 6e-8,
			hops:     goldenHopsEAMRanks8,
			sha:      goldenSHAEAMRanks8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(tc.duration, nil); err != nil {
				t.Fatal(err)
			}
			var img bytes.Buffer
			if err := s.Checkpoint().Save(&img); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img.Bytes())
			got := hex.EncodeToString(sum[:])
			t.Logf("%s: %d hops, %d-byte image, sha256 %s", tc.name, s.Hops(), img.Len(), got)
			if s.Hops() != tc.hops {
				t.Errorf("hops = %d, golden %d", s.Hops(), tc.hops)
			}
			if got != tc.sha {
				t.Errorf("final TKMCBOX2 image sha256 = %s, golden %s", got, tc.sha)
			}
		})
	}
}

// Recorded at commit ac23b9f (the parent of the division-free indexing
// change), go1.24 linux/amd64.
const (
	goldenHopsOneVacancy = 332
	goldenSHAOneVacancy  = "52e5ea5848d0aa01e91f55fb00605ce6ea9939d95df0f83cd2629215775fc841"
	goldenHopsCuRich     = 272
	goldenSHACuRich      = "62113e205b726c192c48a38670a1bba294b93c3e3deb30f75c8cb050288aaf2d"
	goldenHopsRanks      = 384
	goldenSHARanks       = "a33b3aa1bb309f9b5194cabfa0e21460ff24481e11c533f2512b885a85bc2340"
)

// Recorded at commit 1874b19 (the parent of the incremental hop kernel;
// nine full RegionEnergy passes per vacancy system), go1.24 linux/amd64.
const (
	goldenNNPDurationOneVacancy = 3e-8
	goldenHopsNNPOneVacancy     = 495
	goldenSHANNPOneVacancy      = "31bf693d1d8aad0a64836ad9eeb6ddd3c108aab2f63dfc938984c71d634afdde"
	goldenNNPDurationCuRich     = 3e-10
	goldenHopsNNPCuRich         = 87
	goldenSHANNPCuRich          = "46e24551cb79f83b179fba87d1101dcba34665d9374fe0a144b6b2e511166144"
	goldenNNPDurationRanks      = 2e-9
	goldenHopsNNPRanks          = 189
	goldenSHANNPRanks           = "9833c0e84668590a8a64b484079868be4996a6e33c06d76212dff10e7a98dc5c"
)

// Recorded at commit 3686653 (the parent of the batcher's deletion: queue,
// worker pool and width-w batches in front of the backends), go1.24
// linux/amd64.
const (
	goldenNNPDurationRanks8 = 2e-9
	goldenHopsNNPRanks8     = 303
	goldenSHANNPRanks8      = "e978c046bb041c327db5afae4a873d51b652e4a8abbb52f1625b3892333059eb"
	goldenHopsEAMRanks8     = 1533
	goldenSHAEAMRanks8      = "b2eb1bb1e292b8f9e5e7641a39476973f86b0878fedb84ba127b438e04dcac6b"
)
