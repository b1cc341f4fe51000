// Package telemetry is the run-wide observability substrate: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms with snapshot/merge and Prometheus text
// rendering), a lightweight span tracer that aggregates the KMC hot
// path into a per-phase timing tree (the paper's Sec. 5 per-step
// breakdown: select-hop, encode, feature, fusion/NNP eval, exchange,
// audit, checkpoint), and a flight-recorder journal — a bounded ring
// of structured events (retries, restores, cache evictions, stalled
// ranks, audit violations) flushed as JSONL on exit or crash.
//
// Distributed tracing rides the same spans: a phase span opened under
// a trace Context (Phase.StartUnder) also journals itself, and the
// 16-byte context crosses process boundaries in the evalserve wire
// protocol and in control-plane job records. Collect and Assemble
// stitch the flushed journals of every process back into one span tree
// (`tkmc-analyze trace`).
//
// Everything is nil-safe: a nil *Set, *Registry, *Counter, *Phase or
// *Journal turns every operation into a no-op, so instrumented code
// carries no conditionals and an uninstrumented run pays (almost)
// nothing. Instrumentation only ever reads the wall clock and bumps
// atomics — it never touches an RNG stream or simulation state, which
// is what keeps telemetry-on and telemetry-off runs bit-identical.
package telemetry

// Standard phase names. The tracer's get-or-create semantics let every
// layer attach its spans under the same well-known path without
// threading node handles through constructors: core owns "run" and its
// segment/checkpoint/analyze children, the engines hang their hot-path
// phases under run/segment, and the evaluation service owns the
// "evalserve" root (evaluations of several callers overlap, so their
// time nests inside the engines' eval phase rather than adding to the
// run tree), the fleet client the "fleet" root and the control plane
// the "job" root. A span journals under its phase's name, so these
// names are also the journal's span vocabulary.
const (
	PhaseRun        = "run"        // one Simulation.Run call tree root
	PhaseSegment    = "segment"    // one uninterrupted run chunk
	PhaseStep       = "step"       // one serial KMC step
	PhaseSelectHop  = "select-hop" // event selection draws
	PhaseEncode     = "encode"     // VET refill from the lattice
	PhaseEval       = "eval"       // model hop-energy evaluation
	PhaseApply      = "apply"      // hop execution + cache invalidation
	PhaseSector     = "sector"     // parallel sector-window KMC
	PhaseExchange   = "exchange"   // parallel sector synchronisation
	PhaseCheckpoint = "checkpoint" // crash-safe state persistence
	PhaseAnalyze    = "analyze"    // cluster analysis
	PhaseAudit      = "audit"      // physics invariant audits
	PhaseEvalServe  = "evalserve"  // evaluation-service root
	PhaseServe      = "serve"      // one request: cache lookup, flight join or evaluation
	PhaseEvaluate   = "evaluate"   // one backend evaluation of a missed system
	PhaseFusion     = "fusion"     // its hop kernel (features + network forward)
	PhaseFleet      = "fleet"      // fleet-client root; its eval child is one routed request
	PhaseJob        = "job"        // one runner lifetime of a control-plane job
)

// Well-known metric families (the acceptance surface of /metrics).
const (
	MetricStepTotal        = "tkmc_step_total"
	MetricPhaseSeconds     = "tkmc_phase_seconds"
	MetricCacheHits        = "tkmc_eval_cache_hits_total"
	MetricCacheMisses      = "tkmc_eval_cache_misses_total"
	MetricCacheEvictions   = "tkmc_eval_cache_evictions_total"
	MetricCacheCollisions  = "tkmc_eval_cache_collisions_total"
	MetricCacheEntries     = "tkmc_eval_cache_entries"
	MetricEvalBatches      = "tkmc_eval_batches_total"
	MetricEvalDeduped      = "tkmc_eval_deduped_total"
	MetricFleetRetries     = "tkmc_fleet_retries_total"
	MetricFleetFailovers   = "tkmc_fleet_failovers_total"
	MetricFleetFallbacks   = "tkmc_fleet_fallbacks_total"
	MetricFleetReconnects  = "tkmc_fleet_reconnects_total"
	MetricFleetNodeUp      = "tkmc_fleet_node_up"
	MetricRecoveryRestores = "tkmc_recovery_restores_total"
	MetricRecoveryFailures = "tkmc_recovery_failures_total"
	MetricRecoveryReplays  = "tkmc_recovery_replays_total"
	MetricRecoveryAudits   = "tkmc_recovery_audits_total"
	MetricMPISends         = "tkmc_mpi_sends_total"
	MetricMPIRecvs         = "tkmc_mpi_recvs_total"
	MetricMPITimeouts      = "tkmc_mpi_timeouts_total"
	MetricEventsTotal      = "tkmc_events_total"
	MetricEventsDropped    = "tkmc_events_dropped_total"
	MetricCtlJobs          = "tkmc_ctl_jobs"
	MetricCtlSubmitted     = "tkmc_ctl_submitted_total"
	MetricCtlPreemptions   = "tkmc_ctl_preemptions_total"
	MetricCtlShed          = "tkmc_ctl_shed_total"
	MetricCtlWALAppends    = "tkmc_ctl_wal_appends_total"
	MetricCtlWALFsyncs     = "tkmc_ctl_wal_fsyncs_total"
	MetricCtlWALSnapshots  = "tkmc_ctl_wal_snapshots_total"
	MetricCtlWALFsyncSecs  = "tkmc_ctl_wal_fsync_seconds"
)

// Set bundles one run's telemetry: the metric registry, the span
// tracer and the flight-recorder journal. A nil *Set disables all
// three.
type Set struct {
	// Registry holds the metrics, Tracer the phase tree (whose
	// histograms live in Registry) and Journal the flight recorder the
	// tracer's traced spans record into.
	Registry *Registry
	Tracer   *Tracer
	Journal  *Journal
}

// NewSet builds a fully enabled telemetry set with a fresh journal of
// the default capacity.
func NewSet() *Set { return NewSetOn(NewJournal(0)) }

// NewSetOn builds a fully enabled telemetry set around an existing
// journal — e.g. a control-plane job's flight recorder, which outlives
// the run. The tracer journals its traced spans there, and the
// journal's own accounting (events recorded, events dropped by ring
// overflow) joins the fresh registry.
func NewSetOn(jr *Journal) *Set {
	reg := NewRegistry()
	tr := NewTracer(reg)
	tr.jr = jr
	jr.bindMetrics(reg)
	return &Set{Registry: reg, Tracer: tr, Journal: jr}
}

// Reg returns the registry (nil on a nil set).
func (s *Set) Reg() *Registry {
	if s == nil {
		return nil
	}
	return s.Registry
}

// Trace returns the tracer (nil on a nil set).
func (s *Set) Trace() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// Events returns the journal (nil on a nil set).
func (s *Set) Events() *Journal {
	if s == nil {
		return nil
	}
	return s.Journal
}
