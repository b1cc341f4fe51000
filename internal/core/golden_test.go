package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenTrajectories pins the SHA-256 of the final TKMCBOX2 image of
// three small EAM runs as literals. Every other byte-identity test in
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
