package supervise

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/mpi"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/units"
)

// noSleep keeps recovery tests fast: the backoff schedule is still
// computed (and accounted in Recovery.BackoffTotal), just not waited.
func noSleep(time.Duration) {}

func parallelConfig(seed uint64) core.Config {
	return core.Config{
		Cells: [3]int{16, 16, 16}, CuFraction: 0.03, VacancyFraction: 0.001,
		Seed: seed, Ranks: [3]int{2, 2, 1},
		ExchangeTimeout: 200 * time.Millisecond,
	}
}

// referenceRun computes the unperturbed trajectory with the same
// segmentation runSegments drives (segment boundaries are part of the
// trajectory contract).
func referenceRun(t *testing.T, cfg core.Config, segment float64, n int) *core.Simulation {
	t.Helper()
	cfg.Chaos = nil
	ref, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ref.Run(segment, nil); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// runSegments advances the supervised run by n segments, each a RunTo
// the committed clock plus segment — the same float sums as the chained
// ref.Run(segment) of referenceRun.
func runSegments(sup *Supervisor, segment float64, n int) error {
	for i := 0; i < n; i++ {
		if err := sup.RunTo(sup.Simulation().Time() + segment); err != nil {
			return err
		}
	}
	return nil
}

// TestChaosMatrix is the headline acceptance test: a supervised
// parallel run under each dead-rank mode — a rank that stays dead
// across two attempts, and a rank revived by the first failure's
// OnFailure hook (the replacement-node analogue) — must converge to the
// bit-exact trajectory of the unperturbed reference, with every injected
// failure healed by a restore-and-replay the recovery report accounts
// for.
func TestChaosMatrix(t *testing.T) {
	const segment = 5e-8
	const segments = 2

	cases := []struct {
		name string
		// onFailure wraps the chaos handle, whose rank 2 starts dead,
		// into the supervisor's failure hook.
		onFailure func(*mpi.Chaos) func(Failure)
		// failures is the number of failed attempts the run must heal.
		failures int
	}{
		{
			// A burst: the rank stays dead until the second failure's
			// hook revives it, so the first segment fails twice and then
			// replays cleanly.
			name: "drop-burst",
			onFailure: func(c *mpi.Chaos) func(Failure) {
				failures := 0
				return func(Failure) {
					if failures++; failures == 2 {
						c.Revive(2)
					}
				}
			},
			failures: 2,
		},
		{
			// A rank dies outright. The OnFailure hook plays the job
			// scheduler: it folds a replacement node into the fabric
			// (Revive) and the supervisor's teardown-and-rebuild replays
			// the segment on the healthy world.
			name: "dead-rank",
			onFailure: func(c *mpi.Chaos) func(Failure) {
				return func(Failure) { c.Revive(2) }
			},
			failures: 1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			simCfg := parallelConfig(41)
			ref := referenceRun(t, simCfg, segment, segments)

			chaos := mpi.NewChaos()
			chaos.StallRank(2)
			simCfg.Chaos = chaos
			cfg := Config{MaxRetries: 4, Sleep: noSleep, OnFailure: tc.onFailure(chaos)}
			sup, err := New(simCfg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := runSegments(sup, segment, segments); err != nil {
				t.Fatalf("supervised run failed: %v\nlog: %v", err, sup.Recovery().FailureLog)
			}

			sim := sup.Simulation()
			if sim.Time() != ref.Time() || sim.Hops() != ref.Hops() {
				t.Fatalf("supervised (%v, %d) != reference (%v, %d)", sim.Time(), sim.Hops(), ref.Time(), ref.Hops())
			}
			if !sim.Box().Equal(ref.Box()) {
				t.Fatal("supervised trajectory diverged from the unperturbed reference")
			}
			rec := sup.Recovery()
			if !rec.Recovered() || rec.Failures != tc.failures || rec.ShadowRestores == 0 {
				t.Fatalf("injected fault left no recovery trace: %+v", rec)
			}
			if rec.Summary() == "" {
				t.Fatal("recovered run renders an empty summary")
			}
			if rec.BackoffTotal <= 0 {
				t.Fatalf("replays took no backoff: %+v", rec)
			}
			t.Logf("%s: %d failures, %d replays", tc.name, rec.Failures, rec.Replays)
		})
	}
}

// TestSupervisorSerialCleanMatchesUnsupervised: with a healthy fabric
// the supervisor — including per-segment audits — must be invisible:
// same trajectory as a plain run, empty recovery record. The second box
// is non-cubic and dense enough that vacancies sit in each other's
// tables, so hops translate VETs and patch neighbours through the centre
// set between audits.
func TestSupervisorSerialCleanMatchesUnsupervised(t *testing.T) {
	for _, cfg := range []core.Config{
		{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 43},
		{Cells: [3]int{10, 13, 16}, CuFraction: 0.3, VacancyFraction: 0.005, Temperature: 800, Seed: 44},
	} {
		const segment = 2e-8
		ref := referenceRun(t, cfg, segment, 2)

		sup, err := New(cfg, Config{MaxRetries: 2, AuditEvery: 1, Sleep: noSleep})
		if err != nil {
			t.Fatal(err)
		}
		if err := runSegments(sup, segment, 2); err != nil {
			t.Fatal(err)
		}
		sim := sup.Simulation()
		if sim.Time() != ref.Time() || sim.Hops() != ref.Hops() || !sim.Box().Equal(ref.Box()) {
			t.Fatalf("%v cells: supervised clean run diverged from the plain run", cfg.Cells)
		}
		rec := sup.Recovery()
		if rec.Failures != 0 || rec.Replays != 0 || rec.Recovered() {
			t.Fatalf("%v cells: clean run reports recoveries: %+v", cfg.Cells, rec)
		}
		if rec.Audits != 2 {
			t.Fatalf("%v cells: AuditEvery=1 over 2 segments ran %d audits", cfg.Cells, rec.Audits)
		}
		if cfg.Temperature != 0 && sim.Hops() < 500 {
			t.Fatalf("%v cells: only %d hops between the audits", cfg.Cells, sim.Hops())
		}
	}
}

// TestSupervisorExhaustsRetriesFailsFast: a rank that is never revived
// must end in a typed ExhaustedError after exactly MaxRetries replays —
// quickly, never a hang — with the jittered backoff schedule inside the
// backoffBase/backoffMax bounds and strictly growing.
func TestSupervisorExhaustsRetriesFailsFast(t *testing.T) {
	simCfg := parallelConfig(47)
	simCfg.Chaos = mpi.NewChaos()
	simCfg.Chaos.StallRank(2)

	var sleeps []time.Duration
	cfg := Config{
		MaxRetries: 2,
		Sleep:      func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	sup, err := New(simCfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = sup.RunTo(5e-8)
	if err == nil {
		t.Fatal("a permanently dead rank did not fail the run")
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *ExhaustedError, got %v", err)
	}
	if ex.Attempts != 3 {
		t.Fatalf("MaxRetries=2 exhausted after %d attempts", ex.Attempts)
	}
	var stall *mpi.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("exhaustion does not carry the underlying stall diagnostic: %v", err)
	}
	rec := sup.Recovery()
	if rec.Replays != 2 || rec.Failures != 3 {
		t.Fatalf("recovery account inconsistent with 3 attempts: %+v", rec)
	}
	if len(sleeps) != 2 {
		t.Fatalf("want 2 backoff sleeps, got %v", sleeps)
	}
	checkJitterWindows(t, sleeps)
	if sleeps[1] <= sleeps[0] {
		t.Fatalf("backoff not growing: %v", sleeps)
	}
}

// checkJitterWindows fails unless retry i slept inside [d/2, d) with
// d = backoffBase<<i.
func checkJitterWindows(t *testing.T, sleeps []time.Duration) {
	t.Helper()
	for i, d := range sleeps {
		lo := (backoffBase << i) / 2
		hi := backoffBase << i
		if d < lo || d >= hi {
			t.Fatalf("sleep %d = %v outside jitter window [%v, %v)", i, d, lo, hi)
		}
	}
}

// TestSupervisorBackoffFollowsSeed: the backoff jitter is drawn from the
// simulation seed, so two jobs with different seeds failing together
// retry out of step, while a rerun of one job sleeps the same schedule.
func TestSupervisorBackoffFollowsSeed(t *testing.T) {
	sleepsFor := func(seed uint64) []time.Duration {
		simCfg := parallelConfig(seed)
		simCfg.ExchangeTimeout = 50 * time.Millisecond
		simCfg.Chaos = mpi.NewChaos()
		simCfg.Chaos.StallRank(2)
		var sleeps []time.Duration
		sup, err := New(simCfg, Config{
			MaxRetries: 3,
			Sleep:      func(d time.Duration) { sleeps = append(sleeps, d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sup.Simulation().Close()
		var ex *ExhaustedError
		if err := sup.RunTo(5e-8); !errors.As(err, &ex) {
			t.Fatalf("seed %d: want *ExhaustedError, got %v", seed, err)
		}
		if len(sleeps) != 3 {
			t.Fatalf("seed %d: want 3 backoff sleeps, got %v", seed, sleeps)
		}
		checkJitterWindows(t, sleeps)
		return sleeps
	}
	a, b, again := sleepsFor(71), sleepsFor(72), sleepsFor(71)
	if slices.Equal(a, b) {
		t.Fatalf("seeds 71 and 72 drew the same backoff schedule %v", a)
	}
	if !slices.Equal(a, again) {
		t.Fatalf("seed 71 drew %v, then %v", a, again)
	}
}

// TestSupervisorSegmentRunsNoClusterScan: a committed segment scans
// the box for Cu clusters nowhere — neither inside the run nor at the
// commit. The observables feed belongs to whoever drives RunTo.
func TestSupervisorSegmentRunsNoClusterScan(t *testing.T) {
	set := telemetry.NewSet()
	cfg := core.Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 73, Telemetry: set}
	sup, err := New(cfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runSegments(sup, 1e-8, 3); err != nil {
		t.Fatal(err)
	}
	if sup.Simulation().Hops() == 0 {
		t.Fatal("3 segments executed no hop")
	}
	if n := set.Trace().Phase(telemetry.PhaseAnalyze).Count(); n != 0 {
		t.Fatalf("3 segments ran %d cluster scans, want 0", n)
	}
}

// TestSupervisorCorruptionUnrecoverable: a NaN poisoned into the
// potential's weights — the bit-flip the tripwires exist for — must
// surface as a typed UnrecoverableError on the first attempt. Replaying
// would deterministically reproduce the poison, so the supervisor must
// not burn a single retry on it.
func TestSupervisorCorruptionUnrecoverable(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 8, 1}, rng.New(51))
	pot.Nets[0].Layers[0].W.Data[0] = math.NaN()

	cfg := core.Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 53,
		Potential: core.NNP, Net: pot,
	}
	sup, err := New(cfg, Config{MaxRetries: 5, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	err = sup.RunTo(1e-8)
	var un *UnrecoverableError
	if !errors.As(err, &un) {
		t.Fatalf("want *UnrecoverableError, got %v", err)
	}
	if rec := sup.Recovery(); rec.Replays != 0 {
		t.Fatalf("supervisor burned %d replays on deterministic corruption", rec.Replays)
	}
}

// TestSupervisorAuditHealsStateDrift: silent state corruption between
// segments (an Fe transmuted to Cu behind the engine's back) is exactly
// what the invariant auditor exists for. With AuditEvery=1 it must be
// caught at the next segment boundary and healed by a shadow restore,
// leaving the final state bit-identical to the clean reference.
func TestSupervisorAuditHealsStateDrift(t *testing.T) {
	cfg := core.Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 57}
	const segment = 2e-8
	ref := referenceRun(t, cfg, segment, 2)

	sup, err := New(cfg, Config{MaxRetries: 2, AuditEvery: 1, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if err := runSegments(sup, segment, 1); err != nil {
		t.Fatal(err)
	}
	corruptFirstFe(t, sup.Simulation().Box())

	if err := runSegments(sup, segment, 1); err != nil {
		t.Fatalf("supervisor failed to heal state drift: %v", err)
	}
	rec := sup.Recovery()
	if rec.ShadowRestores == 0 || !rec.Recovered() {
		t.Fatalf("drift healed without a shadow restore? %+v", rec)
	}
	sim := sup.Simulation()
	if sim.Time() != ref.Time() || sim.Hops() != ref.Hops() || !sim.Box().Equal(ref.Box()) {
		t.Fatal("healed trajectory differs from the clean reference")
	}
}

// TestSupervisorDiskFallback: with the in-memory shadow corrupted too,
// the supervisor must reject it at restore audit and fall back to the
// on-disk TKMCBOX2 checkpoint — and still converge bit-exactly.
func TestSupervisorDiskFallback(t *testing.T) {
	cfg := core.Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 61}
	const segment = 2e-8
	ref := referenceRun(t, cfg, segment, 2)

	cfg.CheckpointPath = t.TempDir() + "/ck.tkmc"
	sup, err := New(cfg, Config{MaxRetries: 2, AuditEvery: 1, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if err := runSegments(sup, segment, 1); err != nil {
		t.Fatal(err)
	}
	// Poison both the live state and the shadow: only the disk
	// checkpoint written at the end of segment 1 is left to trust.
	corruptFirstFe(t, sup.Simulation().Box())
	corruptFirstFe(t, sup.shadow.Box)

	if err := runSegments(sup, segment, 1); err != nil {
		t.Fatalf("disk fallback failed: %v\nlog: %v", err, sup.Recovery().FailureLog)
	}
	rec := sup.Recovery()
	if rec.DiskRestores == 0 {
		t.Fatalf("recovery did not use the disk checkpoint: %+v", rec)
	}
	if rec.ShadowRestores != 0 {
		t.Fatalf("corrupted shadow was trusted: %+v", rec)
	}
	sim := sup.Simulation()
	if sim.Time() != ref.Time() || sim.Hops() != ref.Hops() || !sim.Box().Equal(ref.Box()) {
		t.Fatal("disk-recovered trajectory differs from the clean reference")
	}
	if rec.ReplayedTime <= 0 {
		t.Fatalf("replayed simulated time not accounted: %+v", rec)
	}
}

// TestSupervisorNoRecoverableState: live state, shadow and disk all
// poisoned — nothing left to restore. The supervisor must give up with
// a typed UnrecoverableError instead of looping.
func TestSupervisorNoRecoverableState(t *testing.T) {
	cfg := core.Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 67}
	sup, err := New(cfg, Config{MaxRetries: 3, AuditEvery: 1, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	corruptFirstFe(t, sup.Simulation().Box())
	corruptFirstFe(t, sup.shadow.Box)
	err = sup.RunTo(1e-8)
	var un *UnrecoverableError
	if !errors.As(err, &un) {
		t.Fatalf("want *UnrecoverableError, got %v", err)
	}
}

// TestSupervisorOnDemandAudit: Audit() on a healthy state passes and is
// counted; after injected drift it reports the violation.
func TestSupervisorOnDemandAudit(t *testing.T) {
	cfg := core.Config{Cells: [3]int{8, 8, 8}, CuFraction: 0.03, VacancyFraction: 0.002, Seed: 71}
	sup, err := New(cfg, Config{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Audit(); err != nil {
		t.Fatalf("fresh state failed audit: %v", err)
	}
	corruptFirstFe(t, sup.Simulation().Box())
	if err := sup.Audit(); err == nil {
		t.Fatal("drifted state passed audit")
	}
	if sup.Recovery().Audits != 2 {
		t.Fatalf("audits not counted: %+v", sup.Recovery())
	}
}

// corruptFirstFe transmutes the first Fe site to Cu — total site count
// conserved, species counts silently drifted.
func corruptFirstFe(t *testing.T, box *lattice.Box) {
	t.Helper()
	for i := 0; i < box.NumSites(); i++ {
		if box.GetIndex(i) == lattice.Fe {
			box.Types()[i] = lattice.Cu
			return
		}
	}
	t.Fatal("no Fe site to corrupt")
}
