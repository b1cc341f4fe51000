package ctl

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"tensorkmc/internal/cluster"
	"tensorkmc/internal/core"
	"tensorkmc/internal/input"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/traj"
)

// trajLogName is the controller-owned trajectory log inside a job's
// checkpoint directory. Under tkmc-ctl the deck's own traj_log path is
// ignored in favour of this location: the log is recovery-critical
// state and must live where re-adoption can find it.
const trajLogName = "traj.tkmctrj"

// EnsembleResult is the cross-replica aggregate an ensemble parent
// completes with: how many replicas finished, and the mean ± standard
// error of their terminal observables. Diffusivity is replayed from
// each completed serial replica's trajectory log (DiffusivityN counts
// the replicas that contributed one; parallel replicas contribute
// cluster statistics only, since between segment boundaries their hops
// have no global order to replay).
type EnsembleResult struct {
	// Replicas is the fan-out width; Completed and Failed count the
	// children's terminal states (canceled children count in neither).
	Replicas  int `json:"replicas"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	// DiffusivityMean/Stderr aggregate the vacancy diffusion
	// coefficient in Å²/s over the DiffusivityN replicas whose logs
	// replayed.
	DiffusivityMean   float64 `json:"diffusivity_mean"`
	DiffusivityStderr float64 `json:"diffusivity_stderr"`
	DiffusivityN      int     `json:"diffusivity_n"`

	// Cluster statistics of each replica's final lattice (2-shell Cu
	// adjacency, the usual bcc Fe–Cu precipitate criterion).
	ClustersMean   float64 `json:"clusters_mean"`
	ClustersStderr float64 `json:"clusters_stderr"`
	MaxClusterMean float64 `json:"max_cluster_mean"`
	IsolatedMean   float64 `json:"isolated_mean"`
}

// replicaID names the i-th (1-based) child of an ensemble parent.
func replicaID(parentID string, i int) string {
	return fmt.Sprintf("%s.r%02d", parentID, i)
}

// childDeckText derives replica i's deck from the parent's: the parent
// text verbatim, plus trailing overrides (later keys win) that strip
// the ensemble marker, install the replica's derived seed, and — when
// the parent restarts from a checkpoint — fork the RNG stream so the
// replicas diverge from the shared snapshot.
func childDeckText(parentText string, deck *input.Deck, i int) string {
	var b strings.Builder
	b.WriteString(parentText)
	if !strings.HasSuffix(parentText, "\n") {
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "# ensemble replica %d overrides\n", i)
	b.WriteString("ensemble_replicas 0\n")
	fmt.Fprintf(&b, "seed %d\n", rng.ChildSeed(deck.Config.Seed, uint64(i-1)))
	if deck.RestartFile != "" {
		b.WriteString("fork on\n")
	}
	return b.String()
}

// fanOutLocked creates the queued replica children of an ensemble
// parent, one WAL record each. It is idempotent — children that
// already exist (a recovery re-entry after a crash mid-fan-out) are
// skipped — so Submit and Open share it. Called with p.mu held (or
// from Open's single-threaded recovery).
func (p *Plane) fanOutLocked(parent *job) error {
	deck, err := input.Parse(strings.NewReader(parent.rec.Deck))
	if err != nil {
		return fmt.Errorf("ctl: reparsing ensemble deck for %s: %w", parent.rec.ID, err)
	}
	for i := 1; i <= parent.rec.Replicas; i++ {
		id := replicaID(parent.rec.ID, i)
		if _, ok := p.jobs[id]; ok {
			continue // already durable: fan-out resumed after a crash
		}
		seq := p.nextSeq
		p.nextSeq++
		// Each replica is its own unit of work and gets its own trace —
		// a 4096-replica fan-in under one trace ID would be unreadable.
		traceID := ""
		if deck.Config.Trace {
			traceID = telemetry.NewTrace().TraceID()
		}
		child := &job{
			rec: JobRecord{
				ID:       id,
				Seq:      seq,
				Tenant:   parent.rec.Tenant,
				Priority: parent.rec.Priority,
				Deck:     childDeckText(parent.rec.Deck, deck, i),
				State:    StateQueued,
				Duration: deck.Duration,
				Parent:   parent.rec.ID,
				Replica:  i,
				TraceID:  traceID,
			},
			journal: telemetry.NewJournal(0),
		}
		if err := p.wal.append(child.rec); err != nil {
			p.nextSeq = seq
			return fmt.Errorf("ctl: logging replica %s: %w", id, err)
		}
		p.jobs[id] = child
		child.journal.Record("submitted", "replica %d/%d of %s", i, parent.rec.Replicas, parent.rec.ID)
		maybeCrash(CrashFanout)
	}
	return nil
}

// cancelChildrenLocked cascades a parent's cancellation to its
// non-terminal replicas: running children stop at their next segment
// boundary, queued/preempted ones cancel immediately. Called with p.mu
// held.
func (p *Plane) cancelChildrenLocked(parent *job) {
	for i := 1; i <= parent.rec.Replicas; i++ {
		c, ok := p.jobs[replicaID(parent.rec.ID, i)]
		if !ok || c.rec.State.Terminal() {
			continue
		}
		if c.rec.State == StateRunning {
			if c.reason == stopNone {
				c.reason = stopCancel
				close(c.stop)
			} else if c.reason == stopPreempt || c.reason == stopDrain {
				c.reason = stopCancel
			}
			c.journal.Record("cancel-requested", "parent %s canceled", parent.rec.ID)
			continue
		}
		if err := p.transitionLocked(c, func(r *JobRecord) { r.State = StateCanceled }); err != nil {
			p.set.Events().Record("transition-failed", "job %s: %v", c.rec.ID, err)
			continue
		}
		c.journal.Record("canceled", "parent %s canceled", parent.rec.ID)
	}
}

// finalizeEnsemble completes an ensemble parent once every replica is
// terminal: it aggregates the completed replicas' terminal observables
// (cluster statistics from each final checkpoint; diffusivity replayed
// from each serial trajectory log) and logs the parent's terminal
// transition. Every child exit kicks it; the finalizing flag ensures
// exactly one invocation aggregates. Safe to call speculatively — it
// bails unless the parent is ready.
func (p *Plane) finalizeEnsemble(parentID string) {
	p.mu.Lock()
	parent, ok := p.jobs[parentID]
	if !ok || parent.rec.Replicas <= 0 || parent.rec.State.Terminal() ||
		parent.finalizing || p.closed {
		p.mu.Unlock()
		return
	}
	type childStat struct {
		id    string
		state JobState
	}
	children := make([]childStat, 0, parent.rec.Replicas)
	for i := 1; i <= parent.rec.Replicas; i++ {
		c, ok := p.jobs[replicaID(parentID, i)]
		if !ok || !c.rec.State.Terminal() {
			p.mu.Unlock()
			return // fan-out incomplete or replicas still in flight
		}
		children = append(children, childStat{c.rec.ID, c.rec.State})
	}
	parent.finalizing = true
	p.mu.Unlock()

	// Aggregation reads checkpoints and replays logs — slow I/O that
	// must not hold the scheduler lock. The children are terminal, so
	// their files are quiescent.
	res := &EnsembleResult{Replicas: parent.rec.Replicas}
	var ds, clusters, maxes, isolated []float64
	for _, c := range children {
		switch c.state {
		case StateFailed, StateExhausted:
			res.Failed++
			continue
		case StateCanceled:
			continue
		}
		res.Completed++
		ck, err := core.LoadCheckpointOrBackup(jobCheckpointPath(p.JobDir(c.id)))
		if err != nil {
			p.set.Events().Record("ensemble-stats-failed", "replica %s: %v", c.id, err)
			continue
		}
		an := cluster.Analyze(ck.Box, 2)
		clusters = append(clusters, float64(an.Clusters))
		maxes = append(maxes, float64(an.MaxSize))
		isolated = append(isolated, float64(an.Isolated))
		if d, err := replicaDiffusivity(filepath.Join(p.JobDir(c.id), trajLogName), ck); err != nil {
			p.set.Events().Record("ensemble-replay-failed", "replica %s: %v", c.id, err)
		} else if !math.IsNaN(d) {
			ds = append(ds, d)
		}
	}
	res.DiffusivityN = len(ds)
	res.DiffusivityMean, res.DiffusivityStderr = meanStderr(ds)
	res.ClustersMean, res.ClustersStderr = meanStderr(clusters)
	res.MaxClusterMean, _ = meanStderr(maxes)
	res.IsolatedMean, _ = meanStderr(isolated)

	p.mu.Lock()
	defer p.mu.Unlock()
	parent.finalizing = false
	if parent.rec.State.Terminal() || p.closed {
		return
	}
	st, detail := StateCompleted, ""
	if res.Completed == 0 {
		st, detail = StateFailed, "no replica completed"
	}
	err := p.transitionLocked(parent, func(r *JobRecord) {
		r.State = st
		r.Ensemble = res
		r.Error = detail
	})
	if err != nil {
		p.set.Events().Record("transition-failed", "job %s: %v", parentID, err)
		return
	}
	parent.journal.Record("ensemble-finalized",
		"%d/%d replicas completed; D = %.4g ± %.4g Å²/s over %d logs; clusters %.2f ± %.2f",
		res.Completed, res.Replicas, res.DiffusivityMean, res.DiffusivityStderr,
		res.DiffusivityN, res.ClustersMean, res.ClustersStderr)
	p.set.Events().Record("ensemble-"+string(st), "job %s aggregated %d/%d replicas",
		parentID, res.Completed, res.Replicas)
	p.schedule()
}

// replicaDiffusivity replays a replica's serial trajectory log from its
// first snapshot and returns the vacancy diffusion coefficient at the
// replica's final hop. NaN (with nil error) means the replica has no
// replayable log — a parallel replica, which records segment boundaries
// only.
func replicaDiffusivity(logPath string, ck *core.Checkpoint) (float64, error) {
	if _, err := os.Stat(logPath); err != nil {
		return math.NaN(), fmt.Errorf("no trajectory log: %w", err)
	}
	lg, err := traj.ReadLog(logPath)
	if err != nil {
		return math.NaN(), err
	}
	if lg.Mode != traj.ModeSerial {
		return math.NaN(), nil // parallel replica: cluster stats only
	}
	_, tr, err := core.ReplayDiffusion(logPath, ck.Hops)
	if err != nil {
		return math.NaN(), err
	}
	return tr.Coefficient(ck.Box.A), nil
}

// meanStderr returns the sample mean and the standard error of the
// mean (sample standard deviation over √n; 0 for n ≤ 1).
func meanStderr(xs []float64) (mean, stderr float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	if n == 1 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
}
