package ctl

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tensorkmc/internal/frame"
	"tensorkmc/internal/input"
	"tensorkmc/internal/telemetry"
)

// Config tunes the control plane. The zero value of every field takes a
// sane default, so Config{Dir: dir} is a working controller.
type Config struct {
	// Dir is the controller's state directory: the WAL and one
	// checkpoint directory per job live under it.
	Dir string
	// MaxRunning bounds concurrently running simulations (default 2).
	MaxRunning int
	// MaxQueued bounds the total non-terminal backlog; submissions past
	// it shed with 503 (default 64).
	MaxQueued int
	// TenantRunning and TenantQueued are the per-tenant quotas: at most
	// TenantRunning of a tenant's jobs run at once (default MaxRunning)
	// and at most TenantQueued may be in flight in total — queued,
	// running or preempted (default MaxQueued). Submissions past the
	// tenant quota shed with 429.
	TenantRunning int
	TenantQueued  int
	// Telemetry, if non-nil, receives the controller's tkmc_ctl_*
	// metrics and its flight-recorder events; nil builds a private set.
	Telemetry *telemetry.Set
}

func (c *Config) applyDefaults() {
	if c.MaxRunning <= 0 {
		c.MaxRunning = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.TenantRunning <= 0 {
		c.TenantRunning = c.MaxRunning
	}
	if c.TenantQueued <= 0 {
		c.TenantQueued = c.MaxQueued
	}
}

// HTTPError is the typed admission/lookup failure the HTTP layer maps
// straight onto a status code and a JSON body. Load-shedding responses
// (429/503) are part of the robustness contract: an overloaded or
// draining controller answers fast and honestly instead of queueing
// unboundedly.
type HTTPError struct {
	Status int    `json:"status"` // HTTP status code
	Code   string `json:"code"`   // stable machine-readable error code
	Detail string `json:"detail"` // human-readable explanation
}

// Error implements the error interface.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("ctl: %s (%d): %s", e.Code, e.Status, e.Detail)
}

// Plane is the live controller: the WAL-backed job store plus the
// scheduler and the runners it supervises.
type Plane struct {
	cfg Config
	set *telemetry.Set

	mu       sync.Mutex
	wal      *wal
	jobs     map[string]*job
	nextSeq  uint64
	draining bool
	closed   bool
	wg       sync.WaitGroup

	submitted   *telemetry.Counter
	preemptions *telemetry.Counter
	shed429     *telemetry.Counter
	shed503     *telemetry.Counter
}

// Open recovers (or initialises) a controller from its state directory:
// replay the WAL, re-adopt every non-terminal job, start scheduling.
// Crash recovery and first boot are deliberately the same code path.
// A directory holding an older controller's TKMCSNAP snapshot is
// refused: the jobs folded into it are in no log this controller reads.
func Open(cfg Config) (*Plane, error) {
	cfg.applyDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ctl: Config.Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("ctl: creating state directory: %w", err)
	}
	set := cfg.Telemetry
	if set == nil {
		set = telemetry.NewSet()
	}
	p := &Plane{cfg: cfg, set: set, jobs: map[string]*job{}}

	for _, name := range []string{"ctl.snap", "ctl.snap.bak"} {
		path := filepath.Join(cfg.Dir, name)
		if _, err := os.Lstat(path); err == nil {
			return nil, fmt.Errorf("ctl: %s is a job-store snapshot from an older tkmc-ctl; "+
				"its jobs are in no log this controller replays, so the store is not opened", path)
		}
	}
	// A crash mid-compaction can leave the temporary copy of the log
	// behind; the log itself is whole either way.
	stale, _ := filepath.Glob(p.walPath() + ".tmp-*")
	for _, path := range stale {
		os.Remove(path)
	}
	w, recs, err := openWAL(p.walPath(), set)
	if err != nil {
		return nil, err
	}
	p.wal = w
	for _, rec := range recs {
		j, ok := p.jobs[rec.ID]
		if !ok {
			j = &job{journal: telemetry.NewJournal(0)}
			p.jobs[rec.ID] = j
		}
		j.rec = rec
		p.nextSeq = max(p.nextSeq, rec.Seq+1)
	}

	// Re-adopt: a job logged as running belonged to a dead incarnation
	// of this controller. Its checkpoint directory holds the last
	// committed boundary, so adoption is just a requeue — the restore
	// happens when a runner picks it up.
	for _, j := range p.jobs {
		if j.rec.State == StateRunning {
			err := p.transitionLocked(j, func(r *JobRecord) {
				r.State = StateQueued
				r.Restores++
			})
			if err != nil {
				return nil, fmt.Errorf("ctl: re-adopting %s: %w", j.rec.ID, err)
			}
			j.journal.Record("re-adopted",
				"controller restart: requeued from checkpoint at t=%.4g s", j.rec.Time)
			set.Events().Record("re-adopt", "job %s requeued after controller restart", j.rec.ID)
		}
	}

	// Ensemble recovery: finish any fan-out the dead incarnation left
	// incomplete (idempotent — durable children are skipped), and re-kick
	// finalization for parents whose replicas all reached terminal
	// states before the crash. finalizeEnsemble bails unless the parent
	// is actually ready, so the kick is safe to issue unconditionally.
	var finalize []string
	for _, j := range p.jobs {
		if j.rec.Replicas <= 0 || j.rec.State.Terminal() {
			continue
		}
		if err := p.fanOutLocked(j); err != nil {
			return nil, fmt.Errorf("ctl: resuming fan-out for %s: %w", j.rec.ID, err)
		}
		finalize = append(finalize, j.rec.ID)
	}

	p.bindMetrics()
	p.mu.Lock()
	p.schedule()
	p.mu.Unlock()
	for _, id := range finalize {
		go p.finalizeEnsemble(id)
	}
	return p, nil
}

func (p *Plane) walPath() string { return filepath.Join(p.cfg.Dir, "ctl.wal") }

// JobDir returns the job's checkpoint directory.
func (p *Plane) JobDir(id string) string { return filepath.Join(p.cfg.Dir, "jobs", id) }

// Telemetry exposes the controller's telemetry set (for the HTTP mux).
func (p *Plane) Telemetry() *telemetry.Set { return p.set }

func (p *Plane) bindMetrics() {
	reg := p.set.Reg()
	if reg == nil {
		return
	}
	p.submitted = reg.Counter(telemetry.MetricCtlSubmitted, "Jobs admitted by the control plane.")
	p.preemptions = reg.Counter(telemetry.MetricCtlPreemptions,
		"Checkpoint-and-requeue evictions of running jobs by higher-priority work.")
	p.shed429 = reg.Counter(telemetry.MetricCtlShed,
		"Submissions shed by admission control, by status code.", "code", "429")
	p.shed503 = reg.Counter(telemetry.MetricCtlShed,
		"Submissions shed by admission control, by status code.", "code", "503")
	for _, st := range States {
		st := st
		reg.GaugeFunc(telemetry.MetricCtlJobs, "Jobs by lifecycle state.", func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			n := 0
			for _, j := range p.jobs {
				if j.rec.State == st {
					n++
				}
			}
			return float64(n)
		}, "state", string(st))
	}
}

// transitionLocked applies a mutation write-ahead: the mutated record is
// logged (and fsynced) before the in-memory state changes, so an
// acknowledged transition is always durable. Called with p.mu held.
//
// A transition is also what makes a record stale, so this is where the
// log compacts: once it holds compactSlack more stale records than live
// jobs. The J records a compaction writes are paid for by the J +
// compactSlack transitions since the last one.
func (p *Plane) transitionLocked(j *job, mutate func(*JobRecord)) error {
	rec := j.rec
	mutate(&rec)
	if err := p.wal.append(rec); err != nil {
		return err
	}
	j.rec = rec
	if p.wal.n >= 2*len(p.jobs)+compactSlack {
		if err := p.wal.compact(p.listLocked()); err != nil {
			// Compaction failure is not a transition failure: the record
			// is durable in the (now longer) WAL; retry next append.
			p.set.Events().Record("compact-failed", "WAL compaction failed: %v", err)
		}
	}
	return nil
}

// Submit admits one deck as a new job. The returned record is the
// admitted queued state; typed *HTTPError failures carry the status the
// HTTP layer should shed with.
func (p *Plane) Submit(deckText string) (JobRecord, error) {
	deck, err := input.Parse(strings.NewReader(deckText))
	if err != nil {
		return JobRecord{}, &HTTPError{Status: http.StatusBadRequest, Code: "invalid_deck", Detail: err.Error()}
	}
	if deck.TelemetryAddr != "" {
		return JobRecord{}, &HTTPError{Status: http.StatusBadRequest, Code: "invalid_deck",
			Detail: "telemetry_addr is controller-owned; remove it from job decks"}
	}
	prio, err := ParsePriority(deck.Priority)
	if err != nil {
		return JobRecord{}, &HTTPError{Status: http.StatusBadRequest, Code: "invalid_deck", Detail: err.Error()}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining || p.closed {
		p.shed503.Inc()
		return JobRecord{}, &HTTPError{Status: http.StatusServiceUnavailable, Code: "draining",
			Detail: "controller is draining; resubmit after restart"}
	}
	// An ensemble deck admits 1 + K jobs at once (the parent plus its
	// replicas), so admission control charges all of them up front —
	// quotas cannot be laundered through fan-out.
	extra := 1
	if deck.EnsembleReplicas > 0 {
		extra += deck.EnsembleReplicas
	}
	backlog, tenantBacklog := 0, 0
	for _, j := range p.jobs {
		if j.rec.State.Terminal() {
			continue
		}
		backlog++
		if j.rec.Tenant == deck.Tenant {
			tenantBacklog++
		}
	}
	if backlog+extra > p.cfg.MaxQueued {
		p.shed503.Inc()
		return JobRecord{}, &HTTPError{Status: http.StatusServiceUnavailable, Code: "backlog_full",
			Detail: fmt.Sprintf("admitting %d job(s) would exceed the backlog bound (%d in flight, max %d)",
				extra, backlog, p.cfg.MaxQueued)}
	}
	if tenantBacklog+extra > p.cfg.TenantQueued {
		p.shed429.Inc()
		return JobRecord{}, &HTTPError{Status: http.StatusTooManyRequests, Code: "tenant_quota",
			Detail: fmt.Sprintf("tenant %q has %d jobs in flight and asks for %d more (quota %d)",
				deck.Tenant, tenantBacklog, extra, p.cfg.TenantQueued)}
	}

	seq := p.nextSeq
	p.nextSeq++
	// Decks with tracing on get their trace minted at admission: the
	// controller's job span, the runner's run/segment spans and the
	// fleet's serve spans all join this one ID.
	traceID := ""
	if deck.Config.Trace {
		traceID = telemetry.NewTrace().TraceID()
	}
	j := &job{
		rec: JobRecord{
			ID:       fmt.Sprintf("job-%06d", seq),
			Seq:      seq,
			Tenant:   deck.Tenant,
			Priority: prio,
			Deck:     deckText,
			State:    StateQueued,
			Duration: deck.Duration,
			Replicas: deck.EnsembleReplicas,
			TraceID:  traceID,
		},
		journal: telemetry.NewJournal(0),
	}
	if err := p.wal.append(j.rec); err != nil {
		p.nextSeq = seq // roll back: nothing durable, nothing admitted
		if errors.Is(err, frame.ErrTooLarge) {
			// JSON escapes <, > and & six bytes wide, so a deck under the
			// HTTP size limit can still encode past the WAL's frame cap.
			return JobRecord{}, &HTTPError{Status: http.StatusBadRequest, Code: "deck_too_large",
				Detail: fmt.Sprintf("the job record exceeds the %d-byte WAL record limit once encoded", frame.MaxPayload)}
		}
		return JobRecord{}, fmt.Errorf("ctl: logging submission: %w", err)
	}
	p.jobs[j.rec.ID] = j
	p.submitted.Inc()
	j.journal.Record("submitted", "tenant=%q priority=%d duration=%.4g s", deck.Tenant, prio, deck.Duration)
	p.set.Events().Record("submit", "job %s tenant=%q priority=%d", j.rec.ID, deck.Tenant, prio)
	if j.rec.Replicas > 0 {
		// The parent is durable, so a fan-out failure here is not an
		// admission failure: recovery finishes the fan-out idempotently
		// on the next Open.
		if err := p.fanOutLocked(j); err != nil {
			p.set.Events().Record("fanout-incomplete", "job %s: %v (recovery will resume)", j.rec.ID, err)
		}
	}
	p.schedule()
	return j.rec, nil
}

// Get returns a job's current record.
func (p *Plane) Get(id string) (JobRecord, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return JobRecord{}, &HTTPError{Status: http.StatusNotFound, Code: "unknown_job", Detail: id}
	}
	return j.rec, nil
}

// List returns every job record, in admission order.
func (p *Plane) List() []JobRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.listLocked()
}

// listLocked returns every job record in admission (Seq) order. Called
// with p.mu held.
func (p *Plane) listLocked() []JobRecord {
	out := make([]JobRecord, 0, len(p.jobs))
	for _, j := range p.jobs {
		out = append(out, j.rec)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// journalFor returns a job's flight recorder (nil when unknown) — the
// SSE stream's source.
func (p *Plane) journalFor(id string) *telemetry.Journal {
	p.mu.Lock()
	defer p.mu.Unlock()
	if j, ok := p.jobs[id]; ok {
		return j.journal
	}
	return nil
}

// Cancel stops a job: queued jobs cancel immediately, running jobs stop
// at their next segment boundary. Cancelling a terminal job is a 409.
func (p *Plane) Cancel(id string) (JobRecord, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return JobRecord{}, &HTTPError{Status: http.StatusNotFound, Code: "unknown_job", Detail: id}
	}
	switch {
	case j.rec.State.Terminal():
		return j.rec, &HTTPError{Status: http.StatusConflict, Code: "already_terminal",
			Detail: fmt.Sprintf("job %s is already %s", id, j.rec.State)}
	case j.rec.State == StateRunning:
		if j.reason == stopNone {
			j.reason = stopCancel
			close(j.stop)
		} else if j.reason == stopPreempt || j.reason == stopDrain {
			// Upgrade an in-flight preempt/drain stop to a cancel so the
			// runner logs the terminal state instead of requeueing.
			j.reason = stopCancel
		}
		j.journal.Record("cancel-requested", "stopping at the next segment boundary")
		return j.rec, nil
	default: // queued or preempted: no runner to stop
		prev := j.rec.State
		err := p.transitionLocked(j, func(r *JobRecord) { r.State = StateCanceled })
		if err != nil {
			return j.rec, err
		}
		j.journal.Record("canceled", "canceled while %s", prev)
		if j.rec.Replicas > 0 {
			p.cancelChildrenLocked(j)
		}
		if j.rec.Parent != "" {
			// A directly canceled replica may be the last one its parent
			// was waiting for.
			go p.finalizeEnsemble(j.rec.Parent)
		}
		p.schedule()
		return j.rec, nil
	}
}

// schedule starts and preempts work to match the configured quotas.
// Called with p.mu held, after every admission, completion and stop.
func (p *Plane) schedule() {
	if p.draining || p.closed {
		return
	}
	for {
		cand := p.pickLocked()
		if cand == nil {
			return
		}
		if p.runningLocked() < p.cfg.MaxRunning {
			if err := p.startLocked(cand); err != nil {
				p.set.Events().Record("start-failed", "job %s: %v", cand.rec.ID, err)
				return
			}
			continue
		}
		// All slots busy: preempt the weakest strictly-lower-priority
		// running job. The victim checkpoints at its next segment
		// boundary and rejoins the queue; its exit re-enters schedule.
		var victim *job
		for _, j := range p.jobs {
			if j.rec.State != StateRunning || j.reason != stopNone {
				continue
			}
			if j.rec.Priority >= cand.rec.Priority {
				continue
			}
			if victim == nil || j.rec.Priority < victim.rec.Priority ||
				(j.rec.Priority == victim.rec.Priority && j.rec.Seq > victim.rec.Seq) {
				victim = j
			}
		}
		if victim == nil {
			return
		}
		victim.reason = stopPreempt
		close(victim.stop)
		p.preemptions.Inc()
		victim.journal.Record("preempting", "yielding to higher-priority %s at the next segment boundary", cand.rec.ID)
		p.set.Events().Record("preempt", "job %s preempted for %s", victim.rec.ID, cand.rec.ID)
		return
	}
}

// runningLocked counts running jobs.
func (p *Plane) runningLocked() int {
	n := 0
	for _, j := range p.jobs {
		if j.rec.State == StateRunning {
			n++
		}
	}
	return n
}

// pickLocked returns the best runnable job admissible under per-tenant
// running quotas: highest priority first, admission order within a
// class.
func (p *Plane) pickLocked() *job {
	tenantRunning := map[string]int{}
	for _, j := range p.jobs {
		if j.rec.State == StateRunning {
			tenantRunning[j.rec.Tenant]++
		}
	}
	var best *job
	for _, j := range p.jobs {
		// Ensemble parents hold no slot: they stay queued while their
		// replicas run and complete via finalizeEnsemble.
		if !j.rec.State.runnable() || j.rec.Replicas > 0 {
			continue
		}
		if tenantRunning[j.rec.Tenant] >= p.cfg.TenantRunning {
			continue
		}
		if best == nil || j.rec.Priority > best.rec.Priority ||
			(j.rec.Priority == best.rec.Priority && j.rec.Seq < best.rec.Seq) {
			best = j
		}
	}
	return best
}

// startLocked transitions a job to running and launches its runner.
func (p *Plane) startLocked(j *job) error {
	if err := p.transitionLocked(j, func(r *JobRecord) { r.State = StateRunning }); err != nil {
		return err
	}
	j.stop = make(chan struct{})
	j.reason = stopNone
	j.done = make(chan struct{})
	p.wg.Add(1)
	go p.runJob(j)
	return nil
}

// Drain is the graceful-shutdown path: stop admitting (submissions shed
// 503, /readyz flips to 503), stop every running job at its next
// segment boundary (each checkpoints and is logged preempted), and wait
// for the runners. After a clean drain the state directory is exactly
// what a crash recovery would want: nothing is lost if the process is
// instead SIGKILLed mid-drain.
func (p *Plane) Drain(timeout time.Duration) error {
	p.mu.Lock()
	p.draining = true
	var waits []chan struct{}
	for _, j := range p.jobs {
		if j.rec.State != StateRunning {
			continue
		}
		if j.reason == stopNone {
			j.reason = stopDrain
			close(j.stop)
		}
		waits = append(waits, j.done)
	}
	p.set.Events().Record("drain", "draining: %d running job(s) to checkpoint", len(waits))
	p.mu.Unlock()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for _, done := range waits {
		select {
		case <-done:
		case <-deadline.C:
			return fmt.Errorf("ctl: drain timed out after %v with jobs still checkpointing", timeout)
		}
	}
	return nil
}

// Ready is the /readyz probe: not ready once draining begins.
func (p *Plane) Ready() (bool, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining || p.closed {
		return false, "draining"
	}
	return true, ""
}

// Close releases the controller. It does not drain — callers wanting a
// graceful stop call Drain first; callers wanting a crash just don't.
func (p *Plane) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var waits []chan struct{}
	for _, j := range p.jobs {
		if j.rec.State == StateRunning {
			if j.reason == stopNone {
				j.reason = stopDrain
				close(j.stop)
			}
			waits = append(waits, j.done)
		}
	}
	p.mu.Unlock()
	for _, done := range waits {
		<-done
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wal.close()
}
