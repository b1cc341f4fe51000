package ctl

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"tensorkmc/internal/core"
	"tensorkmc/internal/input"
	"tensorkmc/internal/supervise"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/traj"
)

// runJob is one job's runner goroutine: execute to completion or to a
// stop signal, then log the terminal (or requeue) transition and let the
// scheduler fill the freed slot.
func (p *Plane) runJob(j *job) {
	defer p.wg.Done()
	defer close(j.done)

	// The controller-side job span: its lifetime brackets everything the
	// runner does, and the simulation's run/segment spans (rooted in the
	// same trace via TraceParent) assemble underneath it.
	var root telemetry.Context
	if id, perr := telemetry.ParseID(j.rec.TraceID); perr == nil {
		root.Trace = id
	}
	jsp := p.set.Trace().Phase(telemetry.PhaseJob).StartUnder(root)
	t, hops, err := p.executeJob(j)
	if err != nil {
		jsp.EndMsg("%s error=%v", j.rec.ID, err)
	} else {
		jsp.EndMsg("%s t=%.4g hops=%d", j.rec.ID, t, hops)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	// The job's private registry leaves the cluster /metrics view with
	// the runner: federation labels only running jobs.
	j.tele = nil
	reason := j.reason
	var terr error
	switch {
	case err == nil:
		terr = p.transitionLocked(j, func(r *JobRecord) {
			r.State = StateCompleted
			r.Time = t
			r.Hops = hops
		})
		j.journal.RecordSim("completed", t, "finished after %d hops", hops)
		p.set.Events().Record("complete", "job %s finished at t=%.4g s", j.rec.ID, t)

	case errors.Is(err, core.ErrJobStopped) && reason == stopCancel:
		terr = p.transitionLocked(j, func(r *JobRecord) {
			r.State = StateCanceled
			r.Time = t
			r.Hops = hops
		})
		j.journal.RecordSim("canceled", t, "canceled at a segment boundary")

	case errors.Is(err, core.ErrJobStopped):
		// Preemption and drain share the mechanism: the checkpoint is
		// already on disk (the segment boundary wrote it), so requeueing
		// is just a WAL record. The chaos hook dies in the window between
		// the two — recovery must re-adopt from the running record and
		// find the newer checkpoint.
		maybeCrash(CrashPreempt)
		terr = p.transitionLocked(j, func(r *JobRecord) {
			r.State = StatePreempted
			r.Time = t
			r.Hops = hops
			if reason == stopPreempt {
				r.Preemptions++
			}
		})
		j.journal.RecordSim("preempted", t, "checkpointed and requeued (reason=%s)", stopReasonName(reason))

	default:
		st := StateFailed
		var ex *supervise.ExhaustedError
		if errors.As(err, &ex) {
			st = StateExhausted
		}
		terr = p.transitionLocked(j, func(r *JobRecord) {
			r.State = st
			r.Time = t
			r.Hops = hops
			r.Error = err.Error()
		})
		j.journal.RecordSim(string(st), t, "%v", err)
		p.set.Events().Record("job-"+string(st), "job %s: %v", j.rec.ID, err)
	}
	if terr != nil {
		// The WAL refused the transition (disk trouble). The in-memory
		// record still says running; a restart will re-adopt from the
		// checkpoint, which is the honest recovery.
		p.set.Events().Record("transition-failed", "job %s: %v", j.rec.ID, terr)
	}
	if j.rec.Parent != "" && j.rec.State.Terminal() {
		// This replica may be the last one its ensemble parent was
		// waiting for. The kick is speculative: finalizeEnsemble
		// re-checks readiness under the lock.
		go p.finalizeEnsemble(j.rec.Parent)
	}
	p.schedule()
}

func stopReasonName(r stopReason) string {
	switch r {
	case stopPreempt:
		return "preempt"
	case stopCancel:
		return "cancel"
	case stopDrain:
		return "drain"
	}
	return "none"
}

// executeJob builds the job's simulation (restoring from its checkpoint
// directory when one exists) and drives it segment by segment to the
// deck's duration. The segment schedule is derived from absolute targets
// (core.SegmentTarget over the integer segment index), never from
// chained remaining-time subtraction, so a run resumed after any number
// of preemptions or crashes computes bit-identical boundaries — and
// therefore a bit-identical trajectory — to an uninterrupted run.
func (p *Plane) executeJob(j *job) (float64, int64, error) {
	deck, err := input.Parse(strings.NewReader(j.rec.Deck))
	if err != nil {
		return 0, 0, fmt.Errorf("reparsing deck: %w", err)
	}
	cfg, err := deck.Finish()
	if err != nil {
		return 0, 0, err
	}

	// Each job gets a private telemetry set on the job's journal: per-job
	// metrics stay isolated while the journal feeds the SSE observable
	// stream and takes the run's spans. The journal's fill/drop counters
	// join the job's registry (so a job overrunning its flight recorder
	// is visible in cluster /metrics), and the registry itself is
	// published for federation.
	cfg.Telemetry = telemetry.NewSetOn(j.journal)
	p.mu.Lock()
	j.tele = cfg.Telemetry
	p.mu.Unlock()
	// Root the simulation's spans in the trace minted at admission.
	cfg.TraceParent = j.rec.TraceID

	cfg, restored, err := core.PrepareJob(cfg, p.JobDir(j.rec.ID))
	if err != nil {
		return 0, 0, err
	}
	if restored {
		j.journal.Record("restore", "resuming from job checkpoint")
	}

	// Ensemble replicas and decks asking for a trajectory log record
	// into the job directory. The deck's own traj_log path is a
	// standalone-run convenience; under the controller the log is
	// recovery-critical state and lives next to the job checkpoint,
	// where re-adoption (and ensemble finalization) can find it.
	if deck.TrajLog != "" || j.rec.Replica > 0 {
		mode := traj.ModeSerial
		if cfg.Ranks[0]*cfg.Ranks[1]*cfg.Ranks[2] > 1 {
			mode = traj.ModeParallel
		}
		rec, err := traj.Open(filepath.Join(p.JobDir(j.rec.ID), trajLogName), mode, deck.TrajSnapshotEvery)
		if err != nil {
			return 0, 0, fmt.Errorf("opening trajectory log: %w", err)
		}
		defer rec.Close()
		rec.SetJournal(j.journal)
		cfg.Traj = rec
	}

	seg := deck.CheckpointEvery
	if seg <= 0 {
		seg = deck.Duration
	}

	sup, err := supervise.New(cfg, supervise.Config{
		MaxRetries: deck.MaxRetries,
		AuditEvery: deck.AuditEvery,
		Control: core.JobControl{
			Stop: j.stop,
			OnSegment: func(pr core.JobProgress) {
				p.onSegment(j, pr)
			},
		},
	})
	if err != nil {
		return 0, 0, err
	}
	defer sup.Simulation().Close()

	D := deck.Duration
	for {
		t := sup.Simulation().Time()
		if t >= D || D-t <= D*1e-12 {
			return sup.Simulation().Time(), sup.Simulation().Hops(), nil
		}
		k := core.SegmentIndex(t, seg)
		target := core.SegmentTarget(k, seg, D)
		if target <= t {
			target = core.SegmentTarget(k+1, seg, D)
		}
		if err := sup.RunTo(target); err != nil {
			return sup.Simulation().Time(), sup.Simulation().Hops(), err
		}
	}
}

// onSegment records one committed segment boundary: progress lands in
// the WAL (so GET /jobs and a post-crash recovery agree on the last
// committed clock) and the per-job journal (so the SSE stream carries a
// live observable feed).
func (p *Plane) onSegment(j *job, pr core.JobProgress) {
	p.mu.Lock()
	if !p.closed && j.rec.State == StateRunning {
		err := p.transitionLocked(j, func(r *JobRecord) {
			r.Time = pr.Time
			r.Hops = pr.Hops
		})
		if err != nil {
			p.set.Events().Record("progress-log-failed", "job %s: %v", j.rec.ID, err)
		}
	}
	p.mu.Unlock()
	j.journal.RecordSim("observable", pr.Time,
		`{"hops":%d,"isolated":%d,"clusters":%d,"max_cluster":%d}`,
		pr.Hops, pr.Isolated, pr.Clusters, pr.MaxCluster)
}
