package ctl

import (
	"net"
	"strings"
	"testing"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/units"
)

// checkVocabulary asserts one process's journal speaks its tracer's
// language: every completed span (Dur > 0) is named after a phase of the
// process's tracer, and that phase has observed at least as many spans
// as the journal holds under its name — a journalled span is a phase
// span, never a second measurement. want names spans the journal must
// hold.
func checkVocabulary(t *testing.T, process string, set *telemetry.Set, want ...string) {
	t.Helper()
	counts := map[string]int64{} // phase name → largest count among phases so named
	var walk func(n telemetry.SpanNode)
	walk = func(n telemetry.SpanNode) {
		counts[n.Name] = max(counts[n.Name], n.Count)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range set.Trace().Spans() {
		walk(r)
	}
	journalled := map[string]int64{}
	for _, e := range set.Events().Events() {
		if e.Type == telemetry.SpanEventType && e.Dur > 0 {
			name, _, _ := strings.Cut(e.Msg, " ")
			journalled[name]++
		}
	}
	for _, name := range want {
		if journalled[name] == 0 {
			t.Errorf("%s: journal holds no %q span (has %v)", process, name, journalled)
		}
	}
	for name, n := range journalled {
		c, ok := counts[name]
		switch {
		case !ok:
			t.Errorf("%s: %d journalled %q spans, but no phase of that name", process, n, name)
		case c < n:
			t.Errorf("%s: %d journalled %q spans, but its phase counted %d", process, n, name, c)
		}
	}
}

// TestSpanVocabulary runs a traced simulation through an in-process
// two-node fleet behind a local eval cache, and a traced control-plane
// job, then holds every process's journal to its tracer's vocabulary.
func TestSpanVocabulary(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
		pot := eam.New(eam.Default())
		var addrs []string
		var nodeSets []*telemetry.Set
		for i := 0; i < 2; i++ {
			set := telemetry.NewSet()
			be := evalserve.NewModelBackend(func() kmc.Model { return eam.NewFastRegionEvaluator(pot, tb) }, 2)
			srv := evalserve.New(be, evalserve.Options{Capacity: 1 << 12, Telemetry: set})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fe := evalserve.Serve(srv, ln)
			t.Cleanup(func() { fe.Close(); srv.Close() })
			addrs = append(addrs, fe.Addr().String())
			nodeSets = append(nodeSets, set)
		}
		client := telemetry.NewSet()
		sim, err := core.New(core.Config{
			Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002, Seed: 42,
			EvalFleet: addrs, EvalTimeout: 2 * time.Second, EvalCache: 1 << 12,
			Telemetry: client, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		for i := 0; i < 2; i++ {
			if _, err := sim.Run(5e-8, nil); err != nil {
				t.Fatal(err)
			}
		}
		checkVocabulary(t, "client", client, telemetry.PhaseRun, telemetry.PhaseSegment, telemetry.PhaseEval)
		for i, set := range nodeSets {
			checkVocabulary(t, "node "+addrs[i], set, telemetry.PhaseServe, telemetry.PhaseEvaluate)
		}
	})

	t.Run("ctl", func(t *testing.T) {
		ctlSet := telemetry.NewSet()
		p := openTestPlane(t, Config{Telemetry: ctlSet})
		rec, err := p.Submit(testDeck("alice", "normal", 9, 2e-7, 2e-8) + "trace on\n")
		if err != nil {
			t.Fatal(err)
		}
		// The job's private set leaves the plane with its runner, so catch
		// it while the job runs.
		var jobSet *telemetry.Set
		for deadline := time.Now().Add(120 * time.Second); jobSet == nil; time.Sleep(100 * time.Microsecond) {
			p.mu.Lock()
			jobSet = p.jobs[rec.ID].tele
			state := p.jobs[rec.ID].rec.State
			p.mu.Unlock()
			if jobSet == nil && (state.Terminal() || time.Now().After(deadline)) {
				t.Fatalf("job reached %s before its telemetry set could be observed", state)
			}
		}
		final := waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() })
		if final.State != StateCompleted {
			t.Fatalf("terminal state %s (%s)", final.State, final.Error)
		}
		checkVocabulary(t, "controller", ctlSet, telemetry.PhaseJob)
		checkVocabulary(t, "job "+rec.ID, jobSet, telemetry.PhaseRun, telemetry.PhaseSegment)
	})
}
