// Package supervise is the self-healing runtime around the TensorKMC
// engines. At the paper's scale (~27.5 M cores, 54 T atoms) the
// machine's mean time between failures is shorter than a production
// run, so a failed segment is an operational routine, not an exception:
// the supervisor tears down the broken world, restores the last
// known-good state — an in-memory shadow checkpoint, falling back to
// the on-disk TKMCBOX2/.bak — rebuilds the ranks, and replays the
// segment, with bounded retries and exponential backoff whose jitter is
// drawn from a seeded stream (no wall-clock randomness in library
// code).
//
// Failures split into two classes. Transient ones — a stalled rank, a
// dropped or timed-out exchange, drifted state caught by the invariant
// auditor — are survivable: restore and replay reproduces the bit-exact
// trajectory, because parallel segments reseed from seed+segment and
// serial checkpoints carry the RNG stream and vacancy slot order.
// Numerical corruption (*fault.CorruptionError from the NaN/Inf
// tripwires) is not: the poison is in memory and deterministic replay
// would only reproduce it, so the supervisor fails fast with a typed
// UnrecoverableError instead of burning retries.
package supervise

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"tensorkmc/internal/audit"
	"tensorkmc/internal/core"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/frame"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/telemetry"
)

// Failure describes one failed segment attempt, as passed to the
// OnFailure observer before the supervisor backs off and restores.
type Failure struct {
	// Segment is the supervisor's 1-based segment counter.
	Segment int
	// Attempt is the 1-based attempt number that failed.
	Attempt int
	// Err is the failure.
	Err error
	// Backoff is the sleep the supervisor will take before restoring,
	// zero when retries are already exhausted.
	Backoff time.Duration
}

// Config tunes the supervisor. The zero value retries nothing and
// audits only after recoveries.
type Config struct {
	// MaxRetries bounds the replays per segment; 0 fails on the first
	// error (but still classifies it).
	MaxRetries int
	// AuditEvery runs the invariant auditor after every Nth successful
	// segment; 0 disables periodic audits (recovery-path audits always
	// run). Off means zero overhead in the segment loop.
	AuditEvery int
	// Sleep, if non-nil, replaces time.Sleep for the backoff waits —
	// tests inject a no-op to keep chaos runs fast.
	Sleep func(time.Duration)
	// OnFailure, if non-nil, observes every failed attempt before the
	// backoff. It is the hook where an operator (or a test) reacts to
	// the failure — e.g. folding a replacement node into the fabric by
	// reviving a chaos-stalled rank.
	OnFailure func(Failure)
}

// The retry backoff for 0-based retry n is drawn uniformly from
// [d/2, d) with d = min(backoffBase<<n, backoffMax), from a jitter
// stream seeded by the simulation seed, not the wall clock: concurrent
// jobs with different seeds retry out of step, and a rerun of one job
// sleeps the same schedule.
const (
	backoffBase = 10 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// Recovery is the typed account of what a supervisor did to keep a run
// alive: the failures it saw, the segments it replayed, and the time it
// lost doing so. Callers (and the CLI's exit status) read it from
// Supervisor.Recovery to distinguish a clean run from a recovered one.
type Recovery struct {
	// Failures counts failed segment attempts (including audit failures).
	Failures int
	// Replays counts segments re-run after a restore.
	Replays int
	// ShadowRestores counts restores from the in-memory shadow
	// checkpoint; DiskRestores counts fallbacks to the on-disk
	// TKMCBOX2/.bak last-good state.
	ShadowRestores int
	DiskRestores   int
	// Audits counts invariant-auditor passes (periodic, post-recovery
	// and on-demand).
	Audits int
	// BackoffTotal is the wall-clock time spent backing off between
	// retries; ReplayedTime is the simulated seconds that had to be
	// re-run after restores.
	BackoffTotal time.Duration
	ReplayedTime float64
	// FailureLog records the failures seen, oldest first (bounded).
	FailureLog []string
}

// Recovered reports whether any segment had to be replayed.
func (r *Recovery) Recovered() bool { return r != nil && r.Replays > 0 }

// Summary renders a one-line human-readable account for logs and the
// CLI exit banner; it returns "" for a nil or uneventful record.
func (r *Recovery) Summary() string {
	if r == nil || (r.Failures == 0 && r.Audits == 0) {
		return ""
	}
	return fmt.Sprintf("recovery: %d failures, %d replays (%d shadow + %d disk restores), %d audits, %.3gs simulated time replayed, %v backoff",
		r.Failures, r.Replays, r.ShadowRestores, r.DiskRestores, r.Audits, r.ReplayedTime, r.BackoffTotal)
}

// ExhaustedError is returned when a segment keeps failing after
// MaxRetries replays: the supervisor gives up fast with the last error
// attached rather than hanging or retrying forever.
type ExhaustedError struct {
	Segment  int
	Attempts int
	Err      error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("supervise: segment %d failed %d attempt(s), retries exhausted: %v", e.Segment, e.Attempts, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// UnrecoverableError is returned for failures no restore can heal:
// numerical corruption from the tripwires, or a failure with no
// loadable known-good state left.
type UnrecoverableError struct {
	Reason string
	Err    error
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("supervise: unrecoverable (%s): %v", e.Reason, e.Err)
}

func (e *UnrecoverableError) Unwrap() error { return e.Err }

// Supervisor drives a core.Simulation with automatic failure recovery.
type Supervisor struct {
	cfg    Config
	simCfg core.Config
	sim    *core.Simulation

	shadow   *core.Checkpoint // last known-good full state, in memory
	base     audit.Baseline   // conserved quantities + initial clock
	lastTime float64          // clock at the last committed segment
	segIndex int              // 1-based segment counter across RunTo calls
	rnd      *rng.Stream      // backoff jitter
	rec      Recovery
	tele     probes
}

// probes are the supervisor's telemetry handles; the zero value (all
// nil) is a valid no-op. The counters mirror the Recovery fields
// rather than exposing them directly because rec is plain ints mutated
// by the supervisor goroutine — a function-backed metric read from the
// HTTP scraper would race. The atomic mirrors are bumped at the same
// sites the rec fields are, so they can only disagree by an in-flight
// increment.
type probes struct {
	failures, replays, shadowRestores, diskRestores, audits *telemetry.Counter
	auditPh                                                 *telemetry.Phase
	journal                                                 *telemetry.Journal
}

func newProbes(set *telemetry.Set) probes {
	if set == nil {
		return probes{}
	}
	reg := set.Reg()
	return probes{
		failures: reg.Counter(telemetry.MetricRecoveryFailures,
			"Failed segment attempts seen by the supervisor (including audit failures)."),
		replays: reg.Counter(telemetry.MetricRecoveryReplays,
			"Segments re-run after a restore."),
		shadowRestores: reg.Counter(telemetry.MetricRecoveryRestores,
			"Known-good state restores, by source.", "kind", "shadow"),
		diskRestores: reg.Counter(telemetry.MetricRecoveryRestores,
			"Known-good state restores, by source.", "kind", "disk"),
		audits: reg.Counter(telemetry.MetricRecoveryAudits,
			"Physics invariant auditor passes (periodic, post-recovery and on-demand)."),
		auditPh: set.Trace().PhaseAt(telemetry.PhaseRun, telemetry.PhaseAudit),
		journal: set.Events(),
	}
}

// New builds the simulation and captures the first shadow checkpoint
// and invariant baseline.
func New(simCfg core.Config, cfg Config) (*Supervisor, error) {
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("supervise: negative MaxRetries")
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	sim, err := core.New(simCfg)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:    cfg,
		simCfg: simCfg,
		sim:    sim,
		rnd:    rng.New(simCfg.Seed ^ 0x5e1f4ea11c0de),
		tele:   newProbes(simCfg.Telemetry),
	}
	s.shadow = sim.Checkpoint()
	s.base = audit.Capture(sim.Box(), sim.Time())
	s.lastTime = sim.Time()
	return s, nil
}

// Simulation exposes the supervised simulation (replaced on recovery).
func (s *Supervisor) Simulation() *core.Simulation { return s.sim }

// Recovery returns a snapshot of the fault-handling account so far.
func (s *Supervisor) Recovery() *Recovery {
	rec := s.rec
	rec.FailureLog = append([]string(nil), s.rec.FailureLog...)
	return &rec
}

// Audit runs the invariant auditor on demand: conservation and clock
// against the baseline, then a from-scratch propensity sweep.
func (s *Supervisor) Audit() error {
	sp := s.tele.auditPh.Start()
	defer sp.EndMsg("")
	s.rec.Audits++
	s.tele.audits.Inc()
	base := s.base
	base.Time = s.lastTime
	if err := audit.Check(s.sim.Box(), s.sim.Time(), base); err != nil {
		return err
	}
	return audit.Propensities(s.sim.Box(), s.sim.Model(), s.sim.Cfg.Temperature)
}

// RunTo advances the simulation to the absolute clock target as one
// supervised segment (with the usual restore-and-replay on failure).
// It is the only way a supervised run advances. Computing boundaries
// from absolute targets is what lets a preempted or crash-restored
// control-plane job recompute the identical segment schedule and
// reproduce the uninterrupted trajectory bit for bit.
// A target at or before the current clock commits nothing and returns
// nil.
func (s *Supervisor) RunTo(target float64) error {
	if target <= s.lastTime {
		return nil
	}
	return s.runSegment(target)
}

// runSegment advances the simulation to the absolute clock target,
// replaying after failures until it commits or retries are exhausted.
func (s *Supervisor) runSegment(target float64) error {
	s.segIndex++
	for attempt := 1; ; attempt++ {
		var err error
		if left := target - s.sim.Time(); left > 0 {
			_, err = s.sim.Run(left, nil)
		}
		if err == nil && s.cfg.AuditEvery > 0 && s.segIndex%s.cfg.AuditEvery == 0 {
			err = s.Audit()
		}
		if err == nil {
			s.shadow = s.sim.Checkpoint()
			s.lastTime = s.sim.Time()
			return nil
		}

		s.rec.Failures++
		s.tele.failures.Inc()
		s.tele.journal.RecordSim("segment-failure", s.sim.Time(),
			"segment %d attempt %d: %v", s.segIndex, attempt, err)
		s.logFailure(fmt.Sprintf("segment %d attempt %d: %v", s.segIndex, attempt, err))
		var ce *fault.CorruptionError
		if errors.As(err, &ce) {
			s.notify(Failure{Segment: s.segIndex, Attempt: attempt, Err: err})
			s.tele.journal.Record("unrecoverable",
				"segment %d: numerical corruption, failing fast", s.segIndex)
			return &UnrecoverableError{Reason: "numerical corruption", Err: err}
		}
		if attempt > s.cfg.MaxRetries {
			s.notify(Failure{Segment: s.segIndex, Attempt: attempt, Err: err})
			s.tele.journal.Record("retries-exhausted",
				"segment %d gave up after %d attempt(s)", s.segIndex, attempt)
			return &ExhaustedError{Segment: s.segIndex, Attempts: attempt, Err: err}
		}

		backoff := s.backoff(attempt - 1)
		s.notify(Failure{Segment: s.segIndex, Attempt: attempt, Err: err, Backoff: backoff})
		s.cfg.Sleep(backoff)
		s.rec.BackoffTotal += backoff

		timeAtFailure := s.sim.Time()
		if rerr := s.restore(); rerr != nil {
			s.tele.journal.Record("unrecoverable",
				"segment %d: no recoverable state left", s.segIndex)
			return &UnrecoverableError{Reason: "no recoverable state", Err: errors.Join(err, rerr)}
		}
		if lost := timeAtFailure - s.sim.Time(); lost > 0 {
			s.rec.ReplayedTime += lost
		}
		s.rec.Replays++
		s.tele.replays.Inc()
	}
}

// restore tears down the failed simulation and rebuilds it from the
// best available known-good state: the in-memory shadow first, then the
// on-disk checkpoint chain. Every restored state is audited before the
// supervisor trusts it.
func (s *Supervisor) restore() error {
	shadowErr := s.restoreFrom(s.shadow)
	if shadowErr == nil {
		s.rec.ShadowRestores++
		s.tele.shadowRestores.Inc()
		s.tele.journal.RecordSim("restore", s.sim.Time(),
			"restored from in-memory shadow checkpoint (segment %d)", s.segIndex)
		return nil
	}
	s.logFailure(fmt.Sprintf("shadow restore rejected: %v", shadowErr))
	if s.simCfg.CheckpointPath == "" {
		return fmt.Errorf("supervise: shadow restore failed and no disk checkpoint configured: %w", shadowErr)
	}
	// Audit each link of the on-disk chain — primary, then the rotated
	// last-good .bak — because a failed segment may have already
	// overwritten the primary with a state the auditor rejects even
	// though its CRC is intact.
	err := frame.Load(s.simCfg.CheckpointPath, func(p string, data []byte) error {
		ck, err := core.LoadCheckpoint(bytes.NewReader(data))
		if err == nil {
			err = s.restoreFrom(ck)
		}
		if err != nil {
			s.logFailure(fmt.Sprintf("disk restore from %s rejected: %v", p, err))
			return err
		}
		s.shadow = ck
		s.rec.DiskRestores++
		s.tele.diskRestores.Inc()
		s.tele.journal.RecordSim("restore", s.sim.Time(),
			"restored from disk checkpoint %s (segment %d)", p, s.segIndex)
		return nil
	})
	if err != nil {
		return fmt.Errorf("supervise: shadow restore failed (%v); disk checkpoint chain exhausted: %w", shadowErr, err)
	}
	return nil
}

// restoreFrom rebuilds the simulation from one checkpoint and audits
// the result (conservation against the run baseline, clock sane,
// propensities finite) before committing to it.
func (s *Supervisor) restoreFrom(ck *core.Checkpoint) error {
	cfg := s.simCfg
	cfg.Restart = ck
	cfg.InitialBox = nil
	sim, err := core.New(cfg)
	if err != nil {
		return err
	}
	s.rec.Audits++
	s.tele.audits.Inc()
	if err := audit.Check(sim.Box(), sim.Time(), s.base); err != nil {
		sim.Close()
		return err
	}
	if err := audit.Propensities(sim.Box(), sim.Model(), sim.Cfg.Temperature); err != nil {
		sim.Close()
		return err
	}
	// The rejected simulation's resources (the evaluation service and
	// fleet client, when configured) are released with it.
	s.sim.Close()
	s.sim = sim
	return nil
}

// backoff returns the jittered exponential delay for the given 0-based
// retry index: uniform in [d/2, d) with d = min(backoffBase<<n, backoffMax).
func (s *Supervisor) backoff(n int) time.Duration {
	d := backoffBase
	for i := 0; i < n && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	half := d / 2
	return half + time.Duration(s.rnd.Float64()*float64(half))
}

func (s *Supervisor) notify(f Failure) {
	if s.cfg.OnFailure != nil {
		s.cfg.OnFailure(f)
	}
}

// logFailure appends to the bounded failure log.
func (s *Supervisor) logFailure(line string) {
	const maxLog = 32
	if len(s.rec.FailureLog) < maxLog {
		s.rec.FailureLog = append(s.rec.FailureLog, line)
	}
}
