package sublattice

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/mpi"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func mustRun(t testing.TB, box *lattice.Box, cfg Config, duration float64, factory func() kmc.Model) *Result {
	t.Helper()
	res, err := Run(box, cfg, duration, factory)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func eamFactory() func() kmc.Model {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	pot := eam.New(eam.Default())
	return func() kmc.Model { return eam.NewRegionEvaluator(pot, tb) }
}

func alloyBox(n int, cuFrac, vacFrac float64, seed uint64) *lattice.Box {
	box := lattice.NewBox(n, n, n, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, cuFrac, vacFrac, rng.New(seed))
	return box
}

func TestConservationAcrossRanks(t *testing.T) {
	box := alloyBox(16, 0.03, 0.001, 1)
	fe0, cu0, vac0 := box.Count()
	cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 2}
	res := mustRun(t, box, cfg, 1e-7, eamFactory())
	fe1, cu1, vac1 := res.Box.Count()
	if fe0 != fe1 || cu0 != cu1 || vac0 != vac1 {
		t.Fatalf("species not conserved: (%d,%d,%d) -> (%d,%d,%d)", fe0, cu0, vac0, fe1, cu1, vac1)
	}
	var hops int64
	for _, s := range res.Stats {
		hops += s.Hops
	}
	if hops == 0 {
		t.Fatal("no hops executed")
	}
	if res.Time != 1e-7 {
		t.Fatalf("Time = %v", res.Time)
	}
	// The input box must be untouched.
	fe2, cu2, vac2 := box.Count()
	if fe2 != fe0 || cu2 != cu0 || vac2 != vac0 {
		t.Fatal("input box was modified")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{PX: 2, PY: 1, PZ: 2, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 9}
	a := mustRun(t, alloyBox(16, 0.05, 0.001, 3), cfg, 1e-7, eamFactory())
	b := mustRun(t, alloyBox(16, 0.05, 0.001, 3), cfg, 1e-7, eamFactory())
	if !a.Box.Equal(b.Box) {
		t.Fatal("same seed produced different final configurations")
	}
	for r := range a.Stats {
		if a.Stats[r] != b.Stats[r] {
			t.Fatalf("rank %d stats differ: %+v vs %+v", r, a.Stats[r], b.Stats[r])
		}
	}
}

// TestGhostConsistency reconstructs the per-rank state after a run and
// verifies every rank's ghost region agrees with the authoritative owner
// — the invariant the sector synchronisation must maintain.
func TestGhostConsistency(t *testing.T) {
	box := alloyBox(16, 0.05, 0.002, 5)
	cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 6}
	factory := eamFactory()
	pool := &helperPool{factory: factory, max: 2}
	nRanks := cfg.Ranks()
	ranks := make([]*rankState, nRanks)
	mpi.RunWorld(mpi.NewWorld(nRanks), func(c *mpi.Comm) {
		r := newRank(c, box, cfg, factory(), pool)
		if err := r.run(1e-7); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		ranks[c.Rank()] = r
	})
	// Authoritative global state from local regions.
	global := lattice.NewBox(box.Nx, box.Ny, box.Nz, box.A)
	for _, r := range ranks {
		r.dom.ForEachLocal(func(v lattice.Vec, idx int) {
			global.Set(v, r.dom.Types()[idx])
		})
	}
	for rankID, r := range ranks {
		r.dom.ForEachGhost(func(v lattice.Vec, idx int) {
			if got, want := r.dom.Types()[idx], global.Get(v); got != want {
				t.Fatalf("rank %d ghost at %v = %v, owner says %v", rankID, v, got, want)
			}
		})
		// Vacancy bookkeeping must match the lattice.
		for _, sys := range r.cache.Systems {
			if r.dom.Get(sys.Centre) != lattice.Vacancy {
				t.Fatalf("rank %d tracks non-vacancy at %v", rankID, sys.Centre)
			}
		}
	}
}

// TestPureFeHopRate checks the parallel engine's physics against the
// analytic expectation: in pure Fe every hop has ΔE = 0, so each vacancy
// hops at 8·Γ₀·exp(−0.65/kT) and the total hop count over a duration is
// Poisson with a known mean — the same mean the serial engine has.
func TestPureFeHopRate(t *testing.T) {
	box := lattice.NewBox(16, 16, 16, units.LatticeConstantFe)
	// Scatter a few well-separated vacancies.
	positions := []lattice.Vec{
		{X: 2, Y: 2, Z: 2}, {X: 18, Y: 2, Z: 2}, {X: 2, Y: 18, Z: 2}, {X: 2, Y: 2, Z: 18},
		{X: 18, Y: 18, Z: 2}, {X: 18, Y: 2, Z: 18}, {X: 2, Y: 18, Z: 18}, {X: 18, Y: 18, Z: 18},
	}
	for _, v := range positions {
		box.Set(v, lattice.Vacancy)
	}
	cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 11}
	const duration = 2e-7
	res := mustRun(t, box, cfg, duration, eamFactory())
	var hops int64
	for _, s := range res.Stats {
		hops += s.Hops
	}
	perHop := units.ArrheniusRate(units.EA0Fe, units.ReactorTemperature)
	mean := float64(len(positions)) * 8 * perHop * duration
	sigma := math.Sqrt(mean)
	if math.Abs(float64(hops)-mean) > 5*sigma {
		t.Fatalf("hops = %d, want %v ± %v", hops, mean, 5*sigma)
	}
}

// TestSerialParallelStatisticalAgreement compares total hop counts of the
// serial engine and a 4-rank parallel run on identical pure-Fe systems:
// means must agree within combined Poisson error.
func TestSerialParallelStatisticalAgreement(t *testing.T) {
	mk := func() *lattice.Box {
		box := lattice.NewBox(16, 16, 16, units.LatticeConstantFe)
		for _, v := range []lattice.Vec{
			{X: 4, Y: 4, Z: 4}, {X: 20, Y: 4, Z: 4}, {X: 4, Y: 20, Z: 4}, {X: 4, Y: 4, Z: 20},
		} {
			box.Set(v, lattice.Vacancy)
		}
		return box
	}
	const duration = 2e-7
	factory := eamFactory()

	serialBox := mk()
	serial := kmc.NewEngine(serialBox, factory(), units.ReactorTemperature, rng.New(21), kmc.Options{})
	for serial.Time() < duration {
		if _, ok := serial.Step(duration); !ok {
			break
		}
	}

	cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 22}
	res := mustRun(t, mk(), cfg, duration, factory)
	var parallelHops int64
	for _, s := range res.Stats {
		parallelHops += s.Hops
	}
	mean := float64(serial.Steps())
	sigma := math.Sqrt(mean + float64(parallelHops))
	if math.Abs(mean-float64(parallelHops)) > 5*sigma {
		t.Fatalf("serial %v hops vs parallel %v hops (σ=%v)", mean, parallelHops, sigma)
	}
}

// TestVacancyMigratesAcrossRanks drives a single vacancy long enough that
// it must cross domain boundaries, exercising emigration/adoption.
func TestVacancyMigratesAcrossRanks(t *testing.T) {
	box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
	box.Set(lattice.Vec{X: 11, Y: 11, Z: 11}, lattice.Vacancy) // near the 2x2x2 rank corner
	cfg := Config{PX: 2, PY: 2, PZ: 2, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 13}
	res := mustRun(t, box, cfg, 5e-7, eamFactory())
	_, _, vac := res.Box.Count()
	if vac != 1 {
		t.Fatalf("vacancy count = %d after migration, want 1", vac)
	}
	// With ~100 expected hops the walker crosses boundaries with
	// overwhelming probability; at least two ranks must have executed
	// hops.
	ranksWithHops := 0
	var total int64
	for _, s := range res.Stats {
		if s.Hops > 0 {
			ranksWithHops++
		}
		total += s.Hops
	}
	if total < 20 {
		t.Fatalf("only %d hops executed", total)
	}
	if ranksWithHops < 2 {
		t.Fatalf("vacancy never crossed rank boundaries (hops on %d ranks)", ranksWithHops)
	}
}

func TestSingleRankMatchesItself(t *testing.T) {
	// PX=PY=PZ=1 exercises the self-image (undivided axis) code path.
	box := alloyBox(12, 0.05, 0.002, 15)
	cfg := Config{PX: 1, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 16}
	fe0, cu0, vac0 := box.Count()
	res := mustRun(t, box, cfg, 1e-7, eamFactory())
	fe1, cu1, vac1 := res.Box.Count()
	if fe0 != fe1 || cu0 != cu1 || vac0 != vac1 {
		t.Fatal("single-rank run broke conservation")
	}
}

func TestConfigValidation(t *testing.T) {
	box := alloyBox(12, 0.01, 0.001, 17)
	factory := eamFactory()
	for name, cfg := range map[string]Config{
		"zero ranks":   {PX: 0, PY: 1, PZ: 1, Temperature: 573, TStop: 1e-8},
		"non-dividing": {PX: 5, PY: 1, PZ: 1, Temperature: 573, TStop: 1e-8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			_, _ = Run(box, cfg, 1e-8, factory)
		}()
	}
}

func TestDefaultTStop(t *testing.T) {
	if DefaultTStop != 2e-8 {
		t.Fatalf("DefaultTStop = %v, want the paper's 2e-8 s", DefaultTStop)
	}
	box := alloyBox(12, 0.0, 0.001, 19)
	cfg := Config{PX: 1, PY: 1, PZ: 1, Temperature: 573, Seed: 20} // TStop defaulted
	res := mustRun(t, box, cfg, 4e-8, eamFactory())
	if res.Time != 4e-8 {
		t.Fatalf("Time = %v", res.Time)
	}
}

// TestStalledRankAbortsWithDiagnostic injects a dead rank via the chaos
// fixture: the sweep must fail with an error naming the stalled rank
// instead of hanging, and the input box must be untouched so the caller
// can recover from a checkpoint.
func TestStalledRankAbortsWithDiagnostic(t *testing.T) {
	box := alloyBox(16, 0.03, 0.001, 41)
	fe0, cu0, vac0 := box.Count()
	chaos := mpi.NewChaos()
	chaos.StallRank(3)
	cfg := Config{
		PX: 2, PY: 2, PZ: 1,
		Temperature:     units.ReactorTemperature,
		TStop:           2e-8,
		Seed:            42,
		ExchangeTimeout: 100 * time.Millisecond,
		Chaos:           chaos,
	}
	start := time.Now()
	res, err := Run(box, cfg, 1e-7, eamFactory())
	if err == nil {
		t.Fatal("sweep with a dead rank did not fail")
	}
	if res != nil {
		t.Fatal("failed sweep returned a result")
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("abort took %v — the timeout did not bound the hang", time.Since(start))
	}
	var stall *mpi.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("error does not carry the stall diagnostic: %v", err)
	}
	if len(stall.Missing) != 1 || stall.Missing[0] != 3 {
		t.Fatalf("diagnostic names ranks %v, want [3]; err: %v", stall.Missing, err)
	}
	if fe1, cu1, vac1 := box.Count(); fe1 != fe0 || cu1 != cu0 || vac1 != vac0 {
		t.Fatal("aborted sweep modified the input box")
	}
}

// failingModel panics with fail on the shared call count's n-th
// HopEnergies, whichever rank or helper makes it.
type failingModel struct {
	kmc.Model
	calls *atomic.Int64
	n     int64
	fail  error
}

func (m failingModel) HopEnergies(vet encoding.VET) (float64, [8]float64, [8]bool) {
	if m.calls.Add(1) == m.n {
		panic(m.fail)
	}
	return m.Model.HopEnergies(vet)
}

// TestRankFailureReleasesPeers: a rank that stops on a corruption or a
// transport error in a run without an exchange timeout must not leave its
// peers waiting in the exchange for ever. Run returns the rank's typed
// error, and the input box is untouched. The guard turns a hang into a
// failure.
func TestRankFailureReleasesPeers(t *testing.T) {
	for _, fail := range []error{
		&fault.CorruptionError{Subsystem: "test", Detail: "injected"},
		&fault.TransportError{Op: "eval", Addr: "test", Err: errors.New("injected")},
	} {
		box := alloyBox(16, 0.03, 0.001, 41)
		before := slices.Clone(box.Types())
		cfg := Config{PX: 2, PY: 2, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 42}
		var calls atomic.Int64
		eamModel := eamFactory()
		factory := func() kmc.Model { return failingModel{eamModel(), &calls, 40, fail} }
		done := make(chan error, 1)
		go func() {
			_, err := Run(box, cfg, 1e-7, factory)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("%T: Run still waiting 2 min after a rank failed (%d model calls)", fail, calls.Load())
		}
		if calls.Load() < 40 {
			t.Fatalf("%T: the run made %d model calls, the fault needs 40", fail, calls.Load())
		}
		if err == nil || !errors.Is(err, fail) {
			t.Fatalf("%T: Run returned %v, want the rank's error", fail, err)
		}
		if !slices.Equal(box.Types(), before) {
			t.Fatalf("%T: aborted sweep modified the input box", fail)
		}
	}
}

// TestExchangeTimeoutHealthyRun: a generous timeout must not perturb a
// healthy run's trajectory.
func TestExchangeTimeoutHealthyRun(t *testing.T) {
	cfg := Config{PX: 2, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: 2e-8, Seed: 9}
	plain := mustRun(t, alloyBox(12, 0.04, 0.001, 8), cfg, 1e-7, eamFactory())
	cfg.ExchangeTimeout = 30 * time.Second
	timed := mustRun(t, alloyBox(12, 0.04, 0.001, 8), cfg, 1e-7, eamFactory())
	if !plain.Box.Equal(timed.Box) {
		t.Fatal("exchange timeout changed the trajectory of a healthy run")
	}
}

// TestLargerTStopFewerExchanges: raising t_stop must reduce the number
// of synchronisation rounds for the same simulated duration while
// conserving matter.
func TestLargerTStopFewerExchanges(t *testing.T) {
	factory := eamFactory()
	run := func(tstop float64) (hops int64, sent int64) {
		box := alloyBox(16, 0.02, 0.001, 31)
		cfg := Config{PX: 2, PY: 1, PZ: 1, Temperature: units.ReactorTemperature, TStop: tstop, Seed: 32}
		res := mustRun(t, box, cfg, 1.6e-7, factory)
		for _, s := range res.Stats {
			hops += s.Hops
			sent += s.Sent
		}
		fe, cu, vac := res.Box.Count()
		if fe+cu+vac != box.NumSites() {
			t.Fatal("conservation broken")
		}
		return hops, sent
	}
	hopsStrict, _ := run(2e-8)
	hopsLoose, _ := run(8e-8)
	// Both runs simulate the same duration: hop counts agree within
	// Poisson statistics.
	mean := float64(hopsStrict+hopsLoose) / 2
	if math.Abs(float64(hopsStrict-hopsLoose)) > 6*math.Sqrt(2*mean) {
		t.Fatalf("hop counts diverge: %d vs %d", hopsStrict, hopsLoose)
	}
}

// hashModel prices a vacancy system by a hash of its whole VET (the kmc
// package's bookkeeping tests use the same): any wrong byte in a cached
// table changes the rates and with them the trajectory, at a fraction of
// the cost of a potential.
type hashModel struct{ tb *encoding.Tables }

func (m hashModel) Tables() *encoding.Tables { return m.tb }

func (m hashModel) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	h := uint64(14695981039346656037) // FNV-1a
	for _, s := range vet {
		h = (h ^ uint64(s)) * 1099511628211
	}
	for k, j := range m.tb.NN1Index {
		valid[k] = vet[j].IsAtom()
		final[k] = 0.4*float64(h>>(8*k)&0xff)/255 - 0.2
	}
	return 0, final, valid
}

// runRanks is Run with the ranks kept, so a test can look into their
// caches afterwards.
func runRanks(t *testing.T, box *lattice.Box, cfg Config, duration float64, model kmc.Model) []*rankState {
	t.Helper()
	ranks := make([]*rankState, cfg.Ranks())
	errs := make([]error, cfg.Ranks())
	pool := &helperPool{factory: func() kmc.Model { return model }, max: 2}
	mpi.RunWorld(mpi.NewWorld(cfg.Ranks()), func(c *mpi.Comm) {
		r := newRank(c, box, cfg, model, pool)
		errs[c.Rank()] = r.run(duration)
		ranks[c.Rank()] = r
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return ranks
}

// TestWalkOnlyDifferential checks the rank protocol around the shared
// vacancy cache (whose translation is checked against the lattice walk,
// over a domain, by kmc.TestCacheOnDomain): ranks kept after a sweep must
// report the stats Run reports for the same sweep, hold in every local and
// ghost site what Run's global box holds there, track exactly their local
// vacancies, each in its own slot, and keep every filled VET equal to a
// FillVET from the rank's domain.
func TestWalkOnlyDifferential(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	cases := []struct {
		cells      [3]int
		px, py, pz int
	}{
		{cells: [3]int{20, 10, 12}, px: 2, py: 1, pz: 1},
		{cells: [3]int{12, 12, 12}, px: 2, py: 2, pz: 2},
	}
	for _, tc := range cases {
		box := lattice.NewBox(tc.cells[0], tc.cells[1], tc.cells[2], units.LatticeConstantFe)
		lattice.FillRandomAlloy(box, 0.05, 0.01, rng.New(81))
		cfg := Config{PX: tc.px, PY: tc.py, PZ: tc.pz, Temperature: 1000, TStop: 1e-10, Seed: 82}
		ranks := runRanks(t, box, cfg, 3e-9, hashModel{tb})
		res := mustRun(t, box, cfg, 3e-9, func() kmc.Model { return hashModel{tb} })
		var hops int64
		for rank, r := range ranks {
			st := r.rankStats()
			if st != res.Stats[rank] {
				t.Fatalf("%v rank %d: stats %+v, Run says %+v", tc, rank, st, res.Stats[rank])
			}
			hops += st.Hops
			vacancies := 0
			r.dom.ForEachLocal(func(v lattice.Vec, idx int) {
				if r.dom.Types()[idx] == lattice.Vacancy {
					vacancies++
				}
			})
			for _, each := range []func(func(lattice.Vec, int)){r.dom.ForEachLocal, r.dom.ForEachGhost} {
				each(func(v lattice.Vec, idx int) {
					if got, want := r.dom.Types()[idx], res.Box.Get(v); got != want {
						t.Fatalf("%v rank %d: site %v holds %v, Run's box %v", tc, rank, v, got, want)
					}
				})
			}
			if len(r.cache.Systems) != vacancies {
				t.Fatalf("%v rank %d: %d systems for %d local vacancies", tc, rank, len(r.cache.Systems), vacancies)
			}
			fresh := tb.NewVET()
			for slot, s := range r.cache.Systems {
				if got, ok := r.cache.SlotAt(s.Centre); !ok || got != slot || !r.dom.IsLocal(s.Centre) || r.dom.Get(s.Centre) != lattice.Vacancy {
					t.Fatalf("%v rank %d slot %d at %v: centre set says (%d, %v), domain holds %v",
						tc, rank, slot, s.Centre, got, ok, r.dom.Get(s.Centre))
				}
				if !s.Filled {
					continue
				}
				tb.FillVET(fresh, s.Centre, r.dom.Get)
				for j := range fresh {
					if s.VET[j] != fresh[j] {
						t.Fatalf("%v rank %d slot %d entry %d: cached %v, domain %v", tc, rank, slot, j, s.VET[j], fresh[j])
					}
				}
			}
		}
		if hops < 2000 {
			t.Fatalf("%v: only %d hops", tc, hops)
		}
	}
}

// countedModel counts the HopEnergies calls made on it.
type countedModel struct {
	kmc.Model
	calls *atomic.Int64
}

func (m countedModel) HopEnergies(vet encoding.VET) (float64, [8]float64, [8]bool) {
	m.calls.Add(1)
	return m.Model.HopEnergies(vet)
}

// TestHelperCountInvariant: Run returns the same box, byte for byte, and
// the same rank counters, memo hits included, whatever number of helper
// models the pool may hold — GOMAXPROCS 1, 2 and 4 — on an EAM and an NNP
// deck over 2 and 8 ranks. The first model the factory makes is the one
// Run validates with and then only lends, so its calls show that helpers
// ran.
func TestHelperCountInvariant(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	eamPot := eam.New(eam.Default())
	desc := feature.Standard(units.CutoffStandard)
	nnPot := nnp.NewPotential(desc, []int{desc.Dim(), 8, 1}, rng.New(9))
	decks := []struct {
		name     string
		model    func() kmc.Model
		duration float64
	}{
		{"eam", func() kmc.Model { return eam.NewFastRegionEvaluator(eamPot, tb) }, 5e-10},
		{"nnp", func() kmc.Model { return nnp.NewLatticeEvaluator(nnPot, tb) }, 1e-10},
	}
	for _, deck := range decks {
		// How many systems the lent-only model evaluated, over every run
		// of the deck: with one core, a rank may finish a batch before
		// its helper starts.
		var helperCalls atomic.Int64
		var hits int64 // memo hits over the GOMAXPROCS 1 runs of the deck
		for _, grid := range [][3]int{{2, 1, 1}, {2, 2, 2}} {
			box := alloyBox(12, 0.1, 0.04, 61)
			cfg := Config{PX: grid[0], PY: grid[1], PZ: grid[2], Temperature: 1000, TStop: 1e-10, Seed: 62}
			var ref *Result
			for _, procs := range []int{1, 2, 4} {
				var made atomic.Int64
				factory := func() kmc.Model {
					if made.Add(1) == 1 {
						return countedModel{deck.model(), &helperCalls}
					}
					return deck.model()
				}
				prev := runtime.GOMAXPROCS(procs)
				res, err := Run(box, cfg, deck.duration, factory)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = res
					var hops int64
					for _, st := range res.Stats {
						hops += st.Hops
						hits += st.MemoHits
					}
					if hops < 50 {
						t.Fatalf("%s %v: only %d hops", deck.name, grid, hops)
					}
					continue
				}
				if !slices.Equal(res.Box.Types(), ref.Box.Types()) {
					t.Fatalf("%s %v: GOMAXPROCS %d evolved a different box than GOMAXPROCS 1", deck.name, grid, procs)
				}
				if !slices.Equal(res.Stats, ref.Stats) {
					t.Fatalf("%s %v: GOMAXPROCS %d rank stats %+v, GOMAXPROCS 1 %+v", deck.name, grid, procs, res.Stats, ref.Stats)
				}
			}
		}
		if helperCalls.Load() == 0 || hits == 0 {
			t.Fatalf("%s: %d systems evaluated by a helper, %d refreshes answered by the memo", deck.name, helperCalls.Load(), hits)
		}
	}
}
