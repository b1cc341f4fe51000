// Package core assembles the TensorKMC simulation from its substrates:
// the bcc lattice, the triple-encoding tables, a potential (neural
// network or EAM), the vacancy-cached serial KMC engine, and the
// sector-synchronised parallel engine. It is the layer the command-line
// tools and examples drive.
package core

import (
	"fmt"
	"math"
	"time"

	"tensorkmc/internal/cluster"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/mpi"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sublattice"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/traj"
	"tensorkmc/internal/units"
)

// PotentialKind selects the energy model.
type PotentialKind int

const (
	// EAM uses the analytic embedded-atom potential (fast; also the
	// synthetic-DFT oracle).
	EAM PotentialKind = iota
	// NNP uses a neural network potential (a *nnp.Potential must be
	// supplied, e.g. loaded from a file trained by cmd/tkmc-train).
	NNP
)

// Config describes a simulation. Zero values take the paper's defaults
// where meaningful.
type Config struct {
	// Cells is the box size in bcc unit cells per axis.
	Cells [3]int
	// LatticeConstant in Å (default 2.87, bcc Fe).
	LatticeConstant float64
	// CuFraction and VacancyFraction are atomic fractions (the paper's
	// runs use 1.34 % Cu and 8×10⁻⁶ vacancies).
	CuFraction      float64
	VacancyFraction float64
	// Temperature in kelvin (default 573, the RPV thermal-aging
	// temperature).
	Temperature float64
	// Cutoff radius in Å (default 6.5).
	Cutoff float64
	// Seed drives the initial alloy and the trajectory.
	Seed uint64

	// Potential selects the energy model; Net must be set for NNP.
	Potential PotentialKind
	Net       *nnp.Potential

	// Ranks is the parallel decomposition (each axis must divide
	// Cells); all-zero or all-one means the serial engine.
	Ranks [3]int
	// TStop is the parallel sector quantum in seconds (default 2e-8).
	TStop float64

	// InitialBox, if non-nil, is used (cloned) instead of a random
	// alloy fill — the checkpoint/restart path. Cells, LatticeConstant,
	// CuFraction and VacancyFraction are then taken from the box.
	InitialBox *lattice.Box

	// Restart, if non-nil, resumes the simulation from a full-state
	// checkpoint: box, clock, hop count, segment counter and (serial)
	// RNG state. It takes precedence over InitialBox.
	Restart *Checkpoint

	// CheckpointPath, if non-empty, makes Run write a crash-safe
	// TKMCBOX2 checkpoint (atomic rename, last-good .bak rotation)
	// every CheckpointEvery simulated seconds and at the end of each
	// Run call. CheckpointEvery <= 0 means only at the end of Run.
	CheckpointPath  string
	CheckpointEvery float64

	// EvalCache, when positive, routes every energy evaluation through a
	// shared evalserve.Server: a content-addressed cache of EvalCache
	// entries over a backend (the incremental hop kernel for NNP, a
	// model pool otherwise), shared by every rank of a parallel run. The
	// service is bit-identical to direct evaluation, so trajectories are
	// unchanged — only faster on recurring environments.
	EvalCache int

	// EvalFleet, when non-empty, routes every energy evaluation through
	// a fleet of evalserve.Serve nodes: a consistent-hash ring over the
	// content-addressed environment space shards the key space across
	// the listed nodes, with per-request deadlines, bounded retry,
	// failover to ring replicas, and (by default) graceful degradation
	// to a local evaluator when the whole fleet is unreachable. Because
	// every node and the local path return bit-identical f64 energies,
	// none of that machinery can change a trajectory. EvalCache composes:
	// when both are set, the cache sits client-side in front of the
	// fleet.
	EvalFleet []string
	// EvalRetry is the extra attempts per node before failing over
	// (0 = fleet default, negative = none). EvalTimeout bounds each wire
	// interaction (0 = fleet default). EvalFallback enables the local
	// degradation path; input decks default it ON for fleet runs.
	EvalRetry    int
	EvalTimeout  time.Duration
	EvalFallback bool

	// ExchangeTimeout bounds each parallel sector exchange; on expiry
	// the sweep aborts with a diagnostic naming the stalled ranks
	// instead of hanging. Zero means wait forever.
	ExchangeTimeout time.Duration
	// Chaos, if non-nil, holds ranks of the parallel rank fabric dead
	// (testing only).
	Chaos *mpi.Chaos

	// Traj, if non-nil, records the run into an event-sourced TKMCTRJ1
	// trajectory log: every serial hop and clip (or parallel segment)
	// becomes an append-only record, with periodic full-state snapshots
	// for replay seeding. The recorder is owned by the caller — it
	// survives supervisor rebuilds, which roll it back to the restored
	// state's committed mark — and it only observes executed events, so
	// checkpoints are byte-identical with recording on or off. Its mode
	// must match the run (serial vs parallel).
	Traj *traj.Recorder

	// Telemetry, if non-nil, instruments the whole stack: the engines
	// bump tkmc_step_total and decompose the hot path into phase spans,
	// the evaluation service exports its cache/batch counters, the
	// rank fabric counts per-rank traffic, and run/segment/checkpoint
	// /analyze timings land in the span tree. Telemetry only reads the
	// wall clock and bumps atomic counters — it never touches RNG
	// streams or simulation state — so trajectories and checkpoints are
	// bit-identical with it on or off.
	Telemetry *telemetry.Set

	// Trace enables distributed trace propagation (it needs Telemetry
	// for the flight-recorder journal): the run mints a trace context —
	// or adopts TraceParent — every KMC segment records a span, and eval
	// requests through the fleet carry the context to serving nodes,
	// where server-side spans nest under the client's. Like the rest of
	// telemetry, tracing only reads the wall clock and appends journal
	// events, so checkpoints stay byte-identical with it on or off.
	Trace bool
	// TraceParent, when set to a 16-hex-char trace ID (e.g. the TraceID
	// minted into a control-plane job record), roots this run's spans in
	// that existing trace instead of minting a fresh one — the hook that
	// joins a job's segments to its controller-side lifecycle spans.
	TraceParent string
}

func (c *Config) applyDefaults() {
	if c.LatticeConstant == 0 {
		c.LatticeConstant = units.LatticeConstantFe
	}
	if c.Temperature == 0 {
		c.Temperature = units.ReactorTemperature
	}
	if c.Cutoff == 0 {
		c.Cutoff = units.CutoffStandard
	}
	if c.TStop == 0 {
		c.TStop = sublattice.DefaultTStop
	}
}

// parallel reports whether the configuration requests the sublattice
// engine.
func (c *Config) parallel() bool {
	r := c.Ranks
	return r[0]*r[1]*r[2] > 1
}

// Simulation is a configured TensorKMC run.
type Simulation struct {
	Cfg    Config
	Tables *encoding.Tables

	box     *lattice.Box
	engine  *kmc.Engine // serial path
	model   kmc.Model
	mkMod   func() kmc.Model       // per-rank factory for the parallel path
	evalSrv *evalserve.Server      // shared evaluation service (nil unless EvalCache > 0)
	fleet   *evalserve.FleetClient // remote evaluation fleet (nil unless EvalFleet set)
	time    float64                // parallel-path clock
	hops    int64                  // parallel-path hop counter
	segment uint64                 // parallel-path run counter (fresh seeds per segment)

	// Telemetry phase handles, nil when telemetry is off. Pre-resolved
	// in New so every metric family is visible in /metrics (at zero)
	// before the first hop runs.
	runPh, segPh, ckptPh, analyzePh *telemetry.Phase

	traceRoot telemetry.Context // run-level trace context, zero when tracing is off
}

// New builds a simulation: allocates and fills the box, constructs the
// encoding tables and the potential evaluator, and (for serial runs)
// the engine.
func New(cfg Config) (*Simulation, error) {
	if cfg.Restart != nil {
		if cfg.Restart.Box == nil {
			return nil, fmt.Errorf("core: restart checkpoint has no box")
		}
		cfg.InitialBox = cfg.Restart.Box
	}
	if cfg.InitialBox != nil {
		cfg.Cells = [3]int{cfg.InitialBox.Nx, cfg.InitialBox.Ny, cfg.InitialBox.Nz}
		cfg.LatticeConstant = cfg.InitialBox.A
	}
	cfg.applyDefaults()
	for i, n := range cfg.Cells {
		if n <= 0 {
			return nil, fmt.Errorf("core: Cells[%d] = %d", i, n)
		}
	}
	// After the defaults, so zero still means "default"; the comparisons
	// are written so that NaN fails them.
	for _, p := range []struct {
		key string
		v   float64
	}{
		{"lattice", cfg.LatticeConstant},
		{"cutoff", cfg.Cutoff},
		{"temperature", cfg.Temperature},
		{"tstop", cfg.TStop},
	} {
		if !(p.v > 0) || math.IsInf(p.v, 1) {
			return nil, fmt.Errorf("core: %s %v is not a positive finite number", p.key, p.v)
		}
	}
	if !(cfg.CuFraction >= 0) || !(cfg.VacancyFraction >= 0) || !(cfg.CuFraction+cfg.VacancyFraction < 1) {
		return nil, fmt.Errorf("core: invalid composition Cu=%v vac=%v", cfg.CuFraction, cfg.VacancyFraction)
	}
	if cfg.Potential == NNP && cfg.Net == nil {
		return nil, fmt.Errorf("core: NNP potential requires Net")
	}
	if cfg.Potential == NNP && cfg.Net.Desc.Rcut > cfg.Cutoff+1e-9 {
		return nil, fmt.Errorf("core: potential cutoff %v exceeds table cutoff %v", cfg.Net.Desc.Rcut, cfg.Cutoff)
	}
	if r := cfg.Ranks; r != ([3]int{}) {
		if r[0] <= 0 || r[1] <= 0 || r[2] <= 0 {
			return nil, fmt.Errorf("core: ranks %d %d %d: every axis must be at least 1", r[0], r[1], r[2])
		}
		if cfg.Cells[0]%r[0] != 0 || cfg.Cells[1]%r[1] != 0 || cfg.Cells[2]%r[2] != 0 {
			return nil, fmt.Errorf("core: ranks %d %d %d do not divide cells %d %d %d", r[0], r[1], r[2], cfg.Cells[0], cfg.Cells[1], cfg.Cells[2])
		}
	}

	s := &Simulation{Cfg: cfg}
	if set := cfg.Telemetry; set != nil {
		s.runPh = set.Trace().Phase(telemetry.PhaseRun)
		s.segPh = s.runPh.Child(telemetry.PhaseSegment)
		s.ckptPh = s.runPh.Child(telemetry.PhaseCheckpoint)
		// Analyze runs between runs (a snapshot line, a supervisor's
		// progress feed), never inside one: its phase is a root.
		s.analyzePh = set.Trace().Phase(telemetry.PhaseAnalyze)
		// Register the step counter eagerly so the family is scrapable
		// (at zero) before the first hop — parallel ranks only create
		// their handles once a sweep starts.
		set.Reg().Counter(telemetry.MetricStepTotal,
			"Executed KMC hops (serial engine steps plus parallel rank hops).")
	}
	if cfg.Trace && cfg.Telemetry != nil {
		if cfg.TraceParent != "" {
			id, err := telemetry.ParseID(cfg.TraceParent)
			if err != nil {
				return nil, fmt.Errorf("core: TraceParent: %w", err)
			}
			s.traceRoot = telemetry.Context{Trace: id}
		} else {
			s.traceRoot = telemetry.NewTrace()
		}
	}
	// The serial engine and the sublattice ghost layer both need the box
	// at least as wide as a vacancy system on every axis. The extent comes
	// from (lattice, cutoff) alone, so a box too small for the tables is
	// refused before they are built: for a tiny lattice constant or a huge
	// cutoff, building them is what would exhaust the machine.
	if ext := encoding.Extent(cfg.LatticeConstant, cfg.Cutoff); 2*min(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2]) < ext {
		return nil, fmt.Errorf("core: cells %d %d %d too small for a %g Å cutoff: every axis needs at least %d cells",
			cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.Cutoff, (ext+1)/2)
	}
	s.Tables = encoding.New(cfg.LatticeConstant, cfg.Cutoff)
	if cfg.InitialBox != nil {
		s.box = cfg.InitialBox.Clone()
	} else {
		s.box = lattice.NewBox(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], cfg.LatticeConstant)
		lattice.FillRandomAlloy(s.box, cfg.CuFraction, cfg.VacancyFraction, rng.New(cfg.Seed))
	}

	switch cfg.Potential {
	case EAM:
		pot := eam.New(eam.Default())
		if pot.P.RCut > cfg.Cutoff+1e-9 {
			return nil, fmt.Errorf("core: cutoff %g Å is below the EAM potential's %g Å", cfg.Cutoff, pot.P.RCut)
		}
		s.mkMod = func() kmc.Model { return eam.NewFastRegionEvaluator(pot, s.Tables) }
	case NNP:
		s.mkMod = func() kmc.Model { return nnp.NewLatticeEvaluator(cfg.Net, s.Tables) }
	default:
		return nil, fmt.Errorf("core: unknown potential kind %d", cfg.Potential)
	}
	if len(cfg.EvalFleet) > 0 {
		fopts := evalserve.FleetOptions{
			Timeout:   cfg.EvalTimeout,
			Retries:   cfg.EvalRetry,
			Seed:      cfg.Seed,
			Telemetry: cfg.Telemetry,
		}
		if cfg.EvalFallback {
			// The degradation path reuses the locally constructed
			// evaluator — bit-identical to the fleet's backends, so a
			// fallback answer is indistinguishable from a served one.
			fopts.Fallback = s.mkMod()
		}
		fleet, err := evalserve.DialFleet(cfg.EvalFleet, cfg.LatticeConstant, cfg.Cutoff, fopts)
		if err != nil {
			return nil, fmt.Errorf("core: dialing evaluation fleet: %w", err)
		}
		s.fleet = fleet
		// The fleet client is concurrency-safe; every rank shares it so
		// identical environments route to the same node's cache.
		s.mkMod = func() kmc.Model { return fleet }
	}
	if cfg.EvalCache > 0 {
		opts := evalserve.Options{
			Capacity:  cfg.EvalCache,
			Telemetry: cfg.Telemetry,
		}
		opts = opts.WithDefaults()
		var be evalserve.Backend
		if cfg.Potential == NNP && s.fleet == nil {
			fb := evalserve.NewFusionBackend(cfg.Net, s.Tables, evalserve.F64)
			fb.SetTelemetry(cfg.Telemetry)
			be = fb
		} else {
			// Non-NNP potentials — and any fleet run, where the remote
			// nodes do the heavy lifting and the local cache just
			// deduplicates wire round trips — go through the model pool.
			be = evalserve.NewModelBackend(s.mkMod, opts.Workers)
		}
		s.evalSrv = evalserve.New(be, opts)
		// Every rank (and the serial engine) shares the one service, so
		// identical environments on different ranks hit the same entry.
		s.mkMod = func() kmc.Model { return s.evalSrv }
	}
	s.model = s.mkMod()

	if !cfg.parallel() {
		s.engine = kmc.NewEngine(s.box, s.model, cfg.Temperature, rng.New(cfg.Seed).Split(1), kmc.Options{Telemetry: cfg.Telemetry})
	}
	if cfg.Restart != nil {
		if err := s.restore(cfg.Restart); err != nil {
			return nil, err
		}
	}
	if err := s.attachTraj(); err != nil {
		return nil, err
	}
	return s, nil
}

// attachTraj binds the configured trajectory recorder to this
// simulation's starting state. A fresh log begins here (and seeds
// itself with an initial snapshot); a resumed log — including every
// supervisor restore, which rebuilds the simulation through New — rolls
// back to the committed mark matching the restored state, failing
// closed if none exists.
func (s *Simulation) attachTraj() error {
	r := s.Cfg.Traj
	if r == nil {
		return nil
	}
	wantMode := traj.ModeSerial
	if s.Cfg.parallel() {
		wantMode = traj.ModeParallel
	}
	if r.Mode() != wantMode {
		return fmt.Errorf("core: trajectory log is %v but the run is %v", r.Mode(), wantMode)
	}
	if r.Begun() {
		if err := r.Rollback(s.Hops(), s.Time()); err != nil {
			return fmt.Errorf("core: resuming trajectory log: %w", err)
		}
		return nil
	}
	if err := r.Begin(s.Hops(), s.Time()); err != nil {
		return fmt.Errorf("core: beginning trajectory log: %w", err)
	}
	if err := s.trajSnapshot(r); err != nil {
		return err
	}
	// Make the begin + base snapshot durable immediately so every later
	// rollback target — including a rollback to the very start — lies
	// strictly after this frame.
	if err := r.Commit(s.Hops(), s.Time()); err != nil {
		return fmt.Errorf("core: committing trajectory log: %w", err)
	}
	return nil
}

// trajSnapshot writes a full-state snapshot of the log via the
// checkpoint machinery (atomic rename + .bak rotation).
func (s *Simulation) trajSnapshot(r *traj.Recorder) error {
	return r.Snapshot(s.Hops(), s.Time(), func(path string) error {
		return s.Checkpoint().SaveFile(path)
	})
}

// trajCommit makes the trajectory log durable up to the current state;
// Run calls it before every checkpoint write so a durable checkpoint
// always has a log mark to roll back to.
func (s *Simulation) trajCommit() error {
	r := s.Cfg.Traj
	if r == nil {
		return nil
	}
	if err := r.Commit(s.Hops(), s.Time()); err != nil {
		return fmt.Errorf("core: committing trajectory log: %w", err)
	}
	return nil
}

// Box returns the current lattice (the evolved state after runs).
func (s *Simulation) Box() *lattice.Box { return s.box }

// EvalStats snapshots the evaluation-service counters; ok reports
// whether the service is enabled.
func (s *Simulation) EvalStats() (st evalserve.Stats, ok bool) {
	if s.evalSrv == nil {
		return evalserve.Stats{}, false
	}
	return s.evalSrv.Stats(), true
}

// Close releases the run's resources — the evaluation service (closed
// to new work) and the fleet client. It is idempotent and safe without
// a service; a closed simulation must not Run again.
func (s *Simulation) Close() {
	if s.evalSrv != nil {
		s.evalSrv.Close()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// TraceID returns the canonical 16-hex-char ID of the run's distributed
// trace — what `tkmc-analyze trace` takes — or "" when tracing is off.
func (s *Simulation) TraceID() string {
	if !s.traceRoot.Valid() {
		return ""
	}
	return s.traceRoot.TraceID()
}

// Model returns the configured energy model, exposed so the physics
// invariant auditor can recompute propensities from scratch.
func (s *Simulation) Model() kmc.Model { return s.model }

// Time returns the simulated time in seconds.
func (s *Simulation) Time() float64 {
	if s.engine != nil {
		return s.engine.Time()
	}
	return s.time
}

// Hops returns the executed hop count.
func (s *Simulation) Hops() int64 {
	if s.engine != nil {
		return s.engine.Steps()
	}
	return s.hops
}

// Report summarises a run segment. Run does not analyse clusters;
// callers that want the Cu cluster state call Analyze.
type Report struct {
	Duration float64
	Hops     int64
}

// Run advances the simulation by duration seconds (serial or parallel
// per the configuration) and returns a report. Observer, if non-nil, is
// invoked after every executed hop on serial runs (it is not available
// on parallel runs, where hops happen concurrently).
func (s *Simulation) Run(duration float64, observer func(ev kmc.Event)) (Report, error) {
	if duration < 0 {
		return Report{}, fmt.Errorf("core: negative duration")
	}
	runSp := s.runPh.StartUnder(s.traceRoot)
	defer runSp.EndMsg("duration=%.6g", duration)
	err := s.eachChunk(duration, func(chunk float64) error {
		if err := s.runChunk(chunk, observer, runSp.Context()); err != nil {
			return err
		}
		if err := s.trajCommit(); err != nil {
			return err
		}
		if s.Cfg.CheckpointPath == "" {
			return nil
		}
		ckptSp := s.ckptPh.Start()
		err := s.SaveCheckpoint(s.Cfg.CheckpointPath)
		ckptSp.EndMsg("")
		if err != nil {
			return fmt.Errorf("core: writing checkpoint: %w", err)
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return Report{Duration: duration, Hops: s.Hops()}, nil
}

// eachChunk slices duration into the run's checkpoint intervals and
// calls step on each in turn, stopping at the first error. With a
// checkpoint path the intervals are CheckpointEvery seconds long (the
// last one shorter); otherwise the whole duration is one interval. The
// slicing is part of the trajectory (a serial Step consumes draws even
// for clipped events), so it is derived from the configuration alone:
// the same deck resumes the same trajectory.
func (s *Simulation) eachChunk(duration float64, step func(chunk float64) error) error {
	every := 0.0
	if s.Cfg.CheckpointPath != "" {
		every = s.Cfg.CheckpointEvery
	}
	for remaining := duration; remaining > 0; {
		chunk := remaining
		if every > 0 && every < chunk {
			chunk = every
		}
		if err := step(chunk); err != nil {
			return err
		}
		remaining -= chunk
		// Swallow float dust from repeated subtraction so the last
		// interval does not spawn a zero-length chunk (and a duplicate
		// checkpoint) for a few ulps of residue.
		if remaining <= duration*1e-12 {
			remaining = 0
		}
	}
	return nil
}

// runChunk advances the simulation by one uninterrupted interval, its
// segment span nested under parent.
func (s *Simulation) runChunk(duration float64, observer func(ev kmc.Event), parent telemetry.Context) (err error) {
	// One span per segment; fleet requests issued inside it mint their
	// per-request spans under this context (SetTrace), which is how a
	// client-side eval span ends up nested in the right segment. Defers
	// run LIFO, so the panic-recovery conversion below has already
	// turned a corruption/transport panic into err by the time the span
	// closes — a failed segment records its error.
	sp := s.segPh.StartUnder(parent)
	defer func() {
		if err != nil {
			sp.EndMsg("error=%v", err)
		} else {
			sp.EndMsg("t=%.6g hops=%d", s.Time(), s.Hops())
		}
	}()
	if ctx := sp.Context(); ctx.Valid() && s.fleet != nil {
		s.fleet.SetTrace(ctx)
		defer s.fleet.SetTrace(telemetry.Context{})
	}
	// The rate kernel's corruption tripwires (NaN/Inf propensities or
	// energies) fire as typed panics; surface them as errors so callers
	// — in particular the supervisor — see a non-retryable failure.
	// Remote-evaluation transport failures panic typed too and become
	// retryable errors: the supervisor replays the segment from the
	// shadow checkpoint while the fleet client rides out the outage. The
	// parallel path converts both per rank inside sublattice.Run.
	defer func() {
		if p := recover(); p != nil {
			switch e := p.(type) {
			case *fault.CorruptionError:
				err = fmt.Errorf("core: aborted: %w", e)
			case *fault.TransportError:
				err = fmt.Errorf("core: aborted: %w", e)
			default:
				panic(p)
			}
		}
	}()
	rec := s.Cfg.Traj
	if s.engine != nil {
		limit := s.engine.Time() + duration
		for s.engine.Time() < limit {
			ev, ok := s.engine.Step(limit)
			if !ok {
				// A clipped draw pinned the clock to the limit and consumed
				// RNG draws, a trajectory event. A zero-rate stall consumed
				// none and left the clock alone: no event can happen
				// before the limit, so the clock moves there, as a parallel
				// sweep's does, with no record.
				if s.engine.Time() < limit {
					s.engine.Restore(limit, s.engine.Steps())
				} else if rec != nil {
					rec.Clip(limit)
				}
				break
			}
			if rec != nil {
				rec.Hop(ev.Slot, ev.Direction, ev.DeltaT)
				if rec.SnapshotDue() {
					if err := s.trajSnapshot(rec); err != nil {
						return err
					}
				}
			}
			if observer != nil {
				observer(ev)
			}
		}
	} else {
		if observer != nil {
			return fmt.Errorf("core: per-event observers are unavailable on parallel runs")
		}
		// Commit the segment counter only after a successful sweep so a
		// failed (e.g. chaos-aborted) segment can be retried or resumed
		// from checkpoint with the same seed.
		seg := s.segment + 1
		cfg := sublattice.Config{
			PX: s.Cfg.Ranks[0], PY: s.Cfg.Ranks[1], PZ: s.Cfg.Ranks[2],
			Temperature:     s.Cfg.Temperature,
			TStop:           s.Cfg.TStop,
			Seed:            s.Cfg.Seed + seg,
			ExchangeTimeout: s.Cfg.ExchangeTimeout,
			Chaos:           s.Cfg.Chaos,
			Telemetry:       s.Cfg.Telemetry,
		}
		res, err := sublattice.Run(s.box, cfg, duration, s.mkMod)
		if err != nil {
			return fmt.Errorf("core: segment %d: %w", seg, err)
		}
		s.segment = seg
		s.box = res.Box
		s.time += res.Time
		for _, st := range res.Stats {
			s.hops += st.Hops
		}
		if rec != nil {
			rec.Segment(seg, duration, s.time, s.hops)
			if rec.SnapshotDue() {
				if err := s.trajSnapshot(rec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Analyze returns the current Cu cluster statistics (1NN+2NN adjacency).
func (s *Simulation) Analyze() cluster.Analysis {
	sp := s.analyzePh.Start()
	defer sp.EndMsg("")
	return cluster.Analyze(s.box, 2)
}
