package ctl

import (
	"errors"
	"fmt"
	"os"
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
	// the runner: only running jobs are labelled into it.
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

	case errors.Is(err, errJobStopped) && reason == stopCancel:
		terr = p.transitionLocked(j, func(r *JobRecord) {
			r.State = StateCanceled
			r.Time = t
			r.Hops = hops
		})
		j.journal.RecordSim("canceled", t, "canceled at a segment boundary")

	case errors.Is(err, errJobStopped):
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

// errJobStopped is the clean interruption executeJob returns when the
// job's stop channel fired at a segment boundary: the state on disk is
// the committed segment's checkpoint, and a later run from the same job
// directory resumes the identical trajectory.
var errJobStopped = errors.New("ctl: job stopped at segment boundary")

// executeJob builds the job's simulation (restoring from its checkpoint
// directory when one exists) and drives it segment by segment to the
// deck's duration. The segment schedule is derived from absolute targets
// (segmentTarget over the integer segment index), never from chained
// remaining-time subtraction, so a run resumed after any number of
// preemptions or crashes computes bit-identical boundaries — and
// therefore a bit-identical trajectory — to an uninterrupted run. The
// stop channel is polled only between segments, where the checkpoint is.
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
	// published to the cluster view.
	cfg.Telemetry = telemetry.NewSetOn(j.journal)
	p.mu.Lock()
	j.tele = cfg.Telemetry
	p.mu.Unlock()
	// Root the simulation's spans in the trace minted at admission.
	cfg.TraceParent = j.rec.TraceID

	cfg, restored, err := prepareJob(cfg, p.JobDir(j.rec.ID))
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
	})
	if err != nil {
		return 0, 0, err
	}
	// Recovery replaces the simulation (closing the one it drops), so
	// close whichever is current at return.
	defer func() { sup.Simulation().Close() }()

	D := deck.Duration
	for committed := 0; ; committed++ {
		sim := sup.Simulation()
		t := sim.Time()
		if t >= D || D-t <= D*1e-12 {
			return t, sim.Hops(), nil
		}
		select {
		case <-j.stop:
			j.journal.RecordSim("job-stopped", t,
				"stop signal honoured at segment boundary (segment %d committed)", committed)
			return t, sim.Hops(), errJobStopped
		default:
		}
		k := segmentIndex(t, seg)
		target := segmentTarget(k, seg, D)
		if target <= t {
			target = segmentTarget(k+1, seg, D)
		}
		if err := sup.RunTo(target); err != nil {
			return sup.Simulation().Time(), sup.Simulation().Hops(), err
		}
		p.onSegment(j, sup.Simulation())
	}
}

// onSegment records one committed segment boundary: progress lands in
// the WAL (so GET /jobs and a post-crash recovery agree on the last
// committed clock) and the Cu precipitation observables in the per-job
// journal (so the SSE stream carries a live observable feed).
func (p *Plane) onSegment(j *job, sim *core.Simulation) {
	t, hops := sim.Time(), sim.Hops()
	p.mu.Lock()
	if !p.closed && j.rec.State == StateRunning {
		err := p.transitionLocked(j, func(r *JobRecord) {
			r.Time = t
			r.Hops = hops
		})
		if err != nil {
			p.set.Events().Record("progress-log-failed", "job %s: %v", j.rec.ID, err)
		}
	}
	p.mu.Unlock()
	a := sim.Analyze()
	j.journal.RecordSim("observable", t,
		`{"hops":%d,"isolated":%d,"clusters":%d,"max_cluster":%d}`,
		hops, a.Isolated, a.Clusters, a.MaxSize)
}

// jobCheckpointPath returns the canonical checkpoint location inside a
// job's state directory. Everything a job needs to resume lives at this
// path (plus its rotated ".bak"), which is what makes preemption,
// controller crash recovery and migration all the same restore.
func jobCheckpointPath(dir string) string {
	return filepath.Join(dir, "checkpoint.tkmc")
}

// prepareJob rewires a parsed simulation config to run as a job out of
// the given state directory: the checkpoint path is forced to
// jobCheckpointPath(dir) (creating dir), and when that path already
// holds a loadable checkpoint — a preempted job, or one orphaned by a
// killed controller — it is loaded as the restart point. The returned
// bool reports whether a restore point was found.
//
// Any checkpoint/restart paths the deck itself carried are deliberately
// overridden: the job directory is the single source of truth for a
// job's resumable state, so two jobs submitted from the same deck text
// cannot alias each other's files.
func prepareJob(cfg core.Config, dir string) (core.Config, bool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cfg, false, fmt.Errorf("ctl: creating job directory: %w", err)
	}
	path := jobCheckpointPath(dir)
	cfg.CheckpointPath = path
	// executeJob slices the run into segments itself; a nested
	// CheckpointEvery slicing would double up.
	cfg.CheckpointEvery = 0
	if _, err := os.Stat(path); err != nil {
		if _, bakErr := os.Stat(path + ".bak"); bakErr != nil {
			return cfg, false, nil // fresh job, no restore point
		}
	}
	ck, err := core.LoadCheckpointOrBackup(path)
	if err != nil {
		return cfg, false, fmt.Errorf("ctl: job has a checkpoint that will not load: %w", err)
	}
	cfg.Restart = ck
	cfg.InitialBox = nil
	return cfg, true, nil
}

// segmentTarget returns the absolute clock target of 0-based segment k
// for a job of the given total duration sliced every seg seconds. The
// target is computed from the integer index — float64(k+1)*seg, clamped
// to duration — never by chaining subtractions, so a run resumed from
// the checkpoint at boundary k computes bit-identical targets to the
// uninterrupted run.
func segmentTarget(k int, seg, duration float64) float64 {
	if seg <= 0 {
		return duration
	}
	return min(float64(k+1)*seg, duration)
}

// segmentIndex recovers the 0-based index of the next segment to run
// from a committed boundary clock. Boundary clocks sit within float dust
// of float64(k)*seg (serial segments clip the clock to the target
// exactly; parallel segments advance by the exact requested duration),
// so rounding is safe; clocks at or past duration mean the job is done
// and any target the index implies will clamp to duration.
func segmentIndex(time, seg float64) int {
	if seg <= 0 || time <= 0 {
		return 0
	}
	k := int(time/seg + 0.5)
	// A mid-segment clock (possible only if the slicing changed between
	// incarnations) rounds to the nearest boundary; never let that skip
	// simulated time.
	if float64(k)*seg > time {
		k--
	}
	return max(k, 0)
}
