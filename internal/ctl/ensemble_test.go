package ctl

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tensorkmc/internal/core"
	"tensorkmc/internal/input"
	"tensorkmc/internal/traj"
)

// ensembleDeck builds a small ensemble-parent deck: K forked replicas
// of the testDeck physics.
func ensembleDeck(tenant string, seed uint64, replicas int, duration, every float64) string {
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
ensemble_replicas %d
`, duration, seed, every, tenant, replicas)
}

// TestEnsembleFanOutAggregates is the happy path: one ensemble deck in,
// K replica children fanned out with derived seeds, and a parent that
// completes with the aggregated mean ± stderr once every child is done.
func TestEnsembleFanOutAggregates(t *testing.T) {
	p := openTestPlane(t, Config{MaxRunning: 2, MaxQueued: 16})
	rec, err := p.Submit(ensembleDeck("alice", 42, 3, 2e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replicas != 3 {
		t.Fatalf("admitted parent %+v", rec)
	}
	// Fan-out happens inside Submit: all three children are durable
	// before the call returns.
	if got := len(p.List()); got != 4 {
		t.Fatalf("%d jobs after ensemble submit, want 4", got)
	}

	final := waitJob(t, p, rec.ID, "ensemble completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCompleted {
		t.Fatalf("parent: %s (%s)", final.State, final.Error)
	}
	res := final.Ensemble
	if res == nil {
		t.Fatal("completed parent has no ensemble result")
	}
	if res.Replicas != 3 || res.Completed != 3 || res.Failed != 0 {
		t.Fatalf("aggregate counts %+v", res)
	}
	if res.DiffusivityN != 3 || res.DiffusivityMean <= 0 {
		t.Fatalf("diffusivity not replayed from all replicas: %+v", res)
	}
	if res.DiffusivityStderr < 0 || res.ClustersMean <= 0 {
		t.Fatalf("implausible aggregate %+v", res)
	}

	decks := map[string]bool{}
	for i := 1; i <= 3; i++ {
		c, err := p.Get(replicaID(rec.ID, i))
		if err != nil {
			t.Fatal(err)
		}
		if c.State != StateCompleted || c.Parent != rec.ID || c.Replica != i {
			t.Fatalf("replica %d: %+v", i, c)
		}
		if c.Hops <= 0 {
			t.Fatalf("replica %d made no progress: %+v", i, c)
		}
		decks[c.Deck] = true
		if _, err := os.Stat(filepath.Join(p.JobDir(c.ID), trajLogName)); err != nil {
			t.Fatalf("replica %d has no trajectory log: %v", i, err)
		}
	}
	if len(decks) != 3 {
		t.Fatal("replica decks are not distinct — seeds were not derived per replica")
	}
}

// TestEnsembleAdmissionChargesReplicas: an ensemble deck admits 1+K jobs
// at once, so both the global backlog bound and the tenant quota charge
// the whole fan-out up front.
func TestEnsembleAdmissionChargesReplicas(t *testing.T) {
	p := openTestPlane(t, Config{MaxRunning: 1, MaxQueued: 4})
	if _, err := p.Submit(ensembleDeck("a", 1, 4, 1e-9, 1e-9)); statusOf(t, err) != http.StatusServiceUnavailable {
		t.Fatalf("oversized ensemble vs backlog: %v", err)
	}
	if len(p.List()) != 0 {
		t.Fatalf("rejected ensemble left jobs behind: %+v", p.List())
	}

	p2 := openTestPlane(t, Config{MaxRunning: 1, MaxQueued: 64, TenantQueued: 3})
	if _, err := p2.Submit(ensembleDeck("b", 2, 3, 1e-9, 1e-9)); statusOf(t, err) != http.StatusTooManyRequests {
		t.Fatalf("oversized ensemble vs tenant quota: %v", err)
	}
	if _, err := p2.Submit(ensembleDeck("b", 3, 2, 1e-9, 1e-9)); err != nil {
		t.Fatalf("fitting ensemble rejected: %v", err)
	}
	if got := len(p2.List()); got != 3 {
		t.Fatalf("%d jobs after fitting ensemble, want 3", got)
	}
}

// TestEnsembleForkDiverges: an ensemble rooted in a restart checkpoint
// forks every replica from the same snapshot — each child's trajectory
// log starts at the fork's hop count — and the derived seeds make the
// replicas diverge.
func TestEnsembleForkDiverges(t *testing.T) {
	dir := t.TempDir()
	sim, err := core.New(core.Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(2e-8, nil); err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, "fork.tkmc")
	if err := sim.SaveCheckpoint(ckPath); err != nil {
		t.Fatal(err)
	}
	forkHops := sim.Hops()

	deck := ensembleDeck("alice", 1234, 2, 6e-8, 2e-8) + "restart " + ckPath + "\n"
	p := openTestPlane(t, Config{Dir: filepath.Join(dir, "ctl"), MaxRunning: 2})
	rec, err := p.Submit(deck)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, p, rec.ID, "forked ensemble completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCompleted || final.Ensemble == nil || final.Ensemble.Completed != 2 {
		t.Fatalf("parent: %+v (%s)", final, final.Error)
	}

	var cks [2][]byte
	for i := 1; i <= 2; i++ {
		c, err := p.Get(replicaID(rec.ID, i))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(c.Deck, "fork on") {
			t.Fatalf("replica %d deck did not fork:\n%s", i, c.Deck)
		}
		lg, err := traj.ReadLog(filepath.Join(p.JobDir(c.ID), trajLogName))
		if err != nil {
			t.Fatal(err)
		}
		if lg.StartHops != forkHops {
			t.Fatalf("replica %d log starts at hop %d, fork was at %d", i, lg.StartHops, forkHops)
		}
		cks[i-1], err = os.ReadFile(jobCheckpointPath(p.JobDir(c.ID)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(cks[0]) == string(cks[1]) {
		t.Fatal("forked replicas ended in identical states — the streams did not diverge")
	}
}

// TestEnsembleCancelCascades: canceling the parent cancels every
// non-terminal replica (running ones at their next boundary).
func TestEnsembleCancelCascades(t *testing.T) {
	p := openTestPlane(t, Config{MaxRunning: 1})
	rec, err := p.Submit(ensembleDeck("a", 9, 2, 1e-7, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, p, replicaID(rec.ID, 1), "first replica start",
		func(r JobRecord) bool { return r.State == StateRunning })
	if got, err := p.Cancel(rec.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("parent cancel: %+v %v", got, err)
	}
	for i := 1; i <= 2; i++ {
		c := waitJob(t, p, replicaID(rec.ID, i), "replica cancellation",
			func(r JobRecord) bool { return r.State.Terminal() })
		if c.State != StateCanceled {
			t.Fatalf("replica %d landed in %s", i, c.State)
		}
	}
	parent, err := p.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if parent.State != StateCanceled || parent.Ensemble != nil {
		t.Fatalf("canceled parent %+v", parent)
	}
}

// TestEnsembleRecoveryFinishesFanOut: a WAL holding the parent and only
// the first replica is a controller that died mid-fan-out. Open must
// create the missing replicas idempotently (the durable child keeps its
// identity and sequence) and the ensemble must still aggregate.
func TestEnsembleRecoveryFinishesFanOut(t *testing.T) {
	dir := t.TempDir()
	deck := ensembleDeck("alice", 7, 2, 2e-8, 1e-8)
	pd, err := input.Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := openWAL(filepath.Join(dir, "ctl.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	parent := JobRecord{
		ID: "job-000001", Seq: 1, Tenant: "alice", Deck: deck,
		State: StateQueued, Duration: 2e-8, Replicas: 2,
	}
	child1 := JobRecord{
		ID: replicaID(parent.ID, 1), Seq: 2, Tenant: "alice",
		Deck:  childDeckText(deck, pd, 1),
		State: StateQueued, Duration: 2e-8, Parent: parent.ID, Replica: 1,
	}
	for _, rec := range []JobRecord{parent, child1} {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	p := openTestPlane(t, Config{Dir: dir})
	r2, err := p.Get(replicaID(parent.ID, 2))
	if err != nil {
		t.Fatalf("recovery did not finish the fan-out: %v", err)
	}
	if r2.Seq <= 2 || r2.Parent != parent.ID || r2.Replica != 2 {
		t.Fatalf("recovered replica %+v", r2)
	}
	final := waitJob(t, p, parent.ID, "recovered ensemble completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCompleted || final.Ensemble == nil || final.Ensemble.Completed != 2 {
		t.Fatalf("recovered parent: %+v (%s)", final, final.Error)
	}
}

// TestChaosEnsembleFanout SIGKILLs a real tkmc-ctl mid-fan-out (after
// the second replica's WAL record, before the third's), restarts it on
// the same state directory, and requires the recovered controller to
// finish the fan-out, run every replica, and complete the parent with a
// full aggregate.
func TestChaosEnsembleFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos skipped in -short")
	}
	ctlBinary(t)
	deck := ensembleDeck("chaos", 77, 3, 4e-8, 2e-8)
	dir := t.TempDir()

	c := startController(t, dir, CrashFanout+":2")
	// The submission itself dies mid-request: the crash point fires
	// inside Submit's fan-out, so the POST gets no response. The parent
	// and the first replica are already durable in the WAL.
	http.Post("http://"+c.addr+"/jobs", "text/plain", strings.NewReader(deck))
	if !c.waitDead(t) {
		t.Fatal("controller survived the fan-out crash point")
	}

	c2 := startController(t, dir, "")
	const parentID = "job-000000" // first submission on a fresh directory
	final := c2.waitHTTP(t, parentID, "post-crash ensemble completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCompleted {
		t.Fatalf("recovered parent: %s (%s)", final.State, final.Error)
	}
	res := final.Ensemble
	if res == nil || res.Completed != 3 || res.DiffusivityN != 3 {
		t.Fatalf("recovered aggregate %+v", res)
	}
	for i := 1; i <= 3; i++ {
		child, err := c2.get(replicaID(parentID, i))
		if err != nil {
			t.Fatal(err)
		}
		if child.State != StateCompleted {
			t.Fatalf("replica %d: %s (%s)", i, child.State, child.Error)
		}
	}
	c2.sigterm(t)
}
