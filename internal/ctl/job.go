package ctl

import (
	"fmt"

	"tensorkmc/internal/telemetry"
)

// JobState is a job's lifecycle position. The state machine is
// deliberately small and every transition is WAL-logged:
//
//	queued ──▶ running ──▶ completed
//	  ▲           │ ├────▶ failed     (unrecoverable)
//	  │           │ ├────▶ exhausted  (retry budget spent)
//	  │           │ └────▶ canceled   (DELETE while running)
//	  │           ▼
//	  └──── preempted                 (checkpointed; rejoins the queue)
//
// A controller restart maps running → queued (re-adoption: the job's
// checkpoint directory holds its last committed boundary) and leaves
// every other state where the WAL put it.
type JobState string

const (
	StateQueued    JobState = "queued"    // admitted, waiting for a run slot
	StateRunning   JobState = "running"   // owned by a runner goroutine
	StatePreempted JobState = "preempted" // checkpointed off its slot; rejoins the queue
	StateCompleted JobState = "completed" // reached its deck duration
	StateFailed    JobState = "failed"    // unrecoverable runtime error
	StateExhausted JobState = "exhausted" // retry budget spent
	StateCanceled  JobState = "canceled"  // removed by the client
)

// States lists every job state, in lifecycle order — the label space of
// the tkmc_ctl_jobs gauge.
var States = []JobState{
	StateQueued, StateRunning, StatePreempted,
	StateCompleted, StateFailed, StateExhausted, StateCanceled,
}

// Terminal reports whether the state ends a job's lifecycle: terminal
// jobs hold no resources, are never scheduled again, and survive in the
// store (and its compactions) as the job's permanent record.
func (s JobState) Terminal() bool {
	switch s {
	case StateCompleted, StateFailed, StateExhausted, StateCanceled:
		return true
	}
	return false
}

// runnable reports whether the scheduler may start the job.
func (s JobState) runnable() bool {
	return s == StateQueued || s == StatePreempted
}

// Priority classes. Decks select them with the `priority` key; the
// scheduler preempts strictly lower classes only, so equal-priority
// jobs never churn each other.
const (
	PriorityLow    = 0
	PriorityNormal = 1
	PriorityHigh   = 2
)

// ParsePriority maps the deck-level priority names to classes. The
// empty string is normal, matching the input package's default.
func ParsePriority(name string) (int, error) {
	switch name {
	case "low":
		return PriorityLow, nil
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("ctl: unknown priority %q", name)
}

// JobRecord is the durable description of one job — the unit the WAL
// appends and a compaction keeps one of per job. Everything needed to re-adopt the
// job after a controller crash is here (the deck text) or in the job's
// checkpoint directory (the simulation state).
type JobRecord struct {
	// ID is the controller-assigned identifier ("job-000001").
	ID string `json:"id"`
	// Seq is the admission sequence number: the FIFO tie-break within a
	// priority class, and the source of new IDs.
	Seq uint64 `json:"seq"`
	// Tenant is the owning principal for quota accounting ("" is the
	// anonymous tenant, which has quotas like any other).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the scheduling class (PriorityLow/Normal/High).
	Priority int `json:"priority"`
	// Deck is the submitted input deck, verbatim. Storing the source
	// text (not a parsed form) keeps the WAL self-contained: re-adopting
	// a job after restart re-parses exactly what the tenant submitted.
	Deck string `json:"deck"`
	// State is the lifecycle position.
	State JobState `json:"state"`
	// Duration is the total simulated seconds the deck asked for;
	// Time and Hops are the last committed progress.
	Duration float64 `json:"duration"`
	Time     float64 `json:"time"`
	Hops     int64   `json:"hops"`
	// Preemptions counts checkpoint-and-requeue evictions; Restores
	// counts re-adoptions after a controller restart.
	Preemptions int `json:"preemptions,omitempty"`
	Restores    int `json:"restores,omitempty"`
	// TraceID is the distributed trace this job belongs to, minted at
	// admission for decks with tracing on ("" otherwise). The runner
	// roots the simulation's run/segment spans in it (TraceParent), so
	// `tkmc-analyze trace <id>` joins the controller-side job span to
	// the job's segments and the fleet's serve spans.
	TraceID string `json:"trace_id,omitempty"`
	// Error is the terminal diagnostic for failed/exhausted jobs.
	Error string `json:"error,omitempty"`

	// Replicas marks an ensemble parent: the deck asked for this many
	// forked replicas. Parents never run — they stay queued while their
	// children execute, then complete with the aggregated Ensemble
	// result (or fail if every replica failed).
	Replicas int `json:"replicas,omitempty"`
	// Parent and Replica mark an ensemble child: the parent job's ID and
	// this child's 1-based replica index.
	Parent  string `json:"parent,omitempty"`
	Replica int    `json:"replica,omitempty"`
	// Ensemble is the parent's aggregated cross-replica result, set by
	// the finalize transition once every child is terminal.
	Ensemble *EnsembleResult `json:"ensemble,omitempty"`
}

// stopReason tells a runner why its stop channel fired, so it can log
// the right terminal (or requeue) transition.
type stopReason int

const (
	stopNone stopReason = iota
	stopPreempt
	stopCancel
	stopDrain
)

// job is a JobRecord plus the runtime attachments of a live controller:
// the stop channel its runner polls, the per-job flight recorder that
// backs the SSE observable stream, and the runner's completion signal.
type job struct {
	rec JobRecord

	stop    chan struct{} // closed to stop the runner at the next boundary
	reason  stopReason
	done    chan struct{} // closed when the runner has fully exited
	journal *telemetry.Journal
	// tele is the running job's private telemetry set, published by the
	// runner for the cluster /metrics view (nil while not running).
	tele *telemetry.Set

	// finalizing guards ensemble aggregation: every child's exit kicks
	// finalizeEnsemble, but only one invocation may aggregate.
	finalizing bool
}
