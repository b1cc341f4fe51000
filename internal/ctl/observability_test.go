package ctl

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"tensorkmc/internal/cluster"
	"tensorkmc/internal/core"
	"tensorkmc/internal/telemetry"
)

// clusterText renders the plane's cluster snapshot as Prometheus text.
func clusterText(t *testing.T, p *Plane) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.ClusterSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestJobTraceMintedAndSpanned: a deck asking for tracing gets a trace
// ID minted at admission, and after the job finishes the controller's
// own journal holds the "job <id>" span in that trace — the root the
// engine's run/segment spans assemble under.
func TestJobTraceMintedAndSpanned(t *testing.T) {
	set := telemetry.NewSet()
	p := openTestPlane(t, Config{Telemetry: set})
	deck := testDeck("alice", "normal", 7, 2e-8, 1e-8) + "trace on\n"
	rec, err := p.Submit(deck)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(rec.TraceID) {
		t.Fatalf("admitted TraceID = %q, want 16 hex digits", rec.TraceID)
	}
	final := waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCompleted {
		t.Fatalf("terminal state %s (%s)", final.State, final.Error)
	}
	if final.TraceID != rec.TraceID {
		t.Fatalf("trace ID changed across the run: %s -> %s", rec.TraceID, final.TraceID)
	}

	var jobSpan *telemetry.Event
	for _, e := range set.Events().Events() {
		if e.Type == telemetry.SpanEventType && strings.HasPrefix(e.Msg, "job "+rec.ID) {
			e := e
			jobSpan = &e
		}
	}
	if jobSpan == nil {
		t.Fatal("controller journal holds no job span for the traced job")
	}
	if jobSpan.Trace != rec.TraceID {
		t.Fatalf("job span trace %s, want the admitted %s", jobSpan.Trace, rec.TraceID)
	}
	if !strings.Contains(jobSpan.Msg, "hops=") {
		t.Fatalf("job span end message %q carries no outcome", jobSpan.Msg)
	}
}

// TestJobUntracedByDefault: no trace key, no trace ID, no spans.
func TestJobUntracedByDefault(t *testing.T) {
	set := telemetry.NewSet()
	p := openTestPlane(t, Config{Telemetry: set})
	rec, err := p.Submit(testDeck("alice", "normal", 8, 1e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if rec.TraceID != "" {
		t.Fatalf("untraced deck minted trace ID %q", rec.TraceID)
	}
	waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() })
	for _, e := range set.Events().Events() {
		if e.Type == telemetry.SpanEventType {
			t.Fatalf("untraced job recorded a span: %+v", e)
		}
	}
}

// TestClusterMetricsJobLabels is the acceptance check for the cluster
// /metrics view: it holds the controller's own series, a running job's
// private registry arrives job-labelled, and it leaves the view when the
// job completes.
func TestClusterMetricsJobLabels(t *testing.T) {
	p := openTestPlane(t, Config{Telemetry: telemetry.NewSet()})

	// A running job joins the view job-labelled. The deck runs long
	// enough (many segments) for the poll below to catch it mid-flight.
	rec, err := p.Submit(testDeck("alice", "normal", 9, 4e-7, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	jobLabel := `{job="` + rec.ID + `"}`
	deadline := time.Now().Add(120 * time.Second)
	for !strings.Contains(clusterText(t, p), jobLabel) {
		if time.Now().After(deadline) {
			t.Fatalf("no job-labelled series appeared while %s ran:\n%s", rec.ID, clusterText(t, p))
		}
		if r, _ := p.Get(rec.ID); r.State.Terminal() {
			t.Fatalf("job reached %s before any job-labelled series appeared", r.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if out := clusterText(t, p); !strings.Contains(out, telemetry.MetricCtlSubmitted+" 1") {
		t.Fatalf("cluster metrics missing the controller's own series:\n%s", out)
	}

	// Job completes: its private registry leaves the cluster view.
	waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() })
	if out := clusterText(t, p); strings.Contains(out, jobLabel) {
		t.Fatalf("completed job still in the cluster view:\n%s", out)
	}
}

// TestJobObservablePerSegment: a job of N committed segments journals N
// observable events and runs N cluster scans, one per segment, and the
// last event carries the final state's observables.
func TestJobObservablePerSegment(t *testing.T) {
	p := openTestPlane(t, Config{})
	const segments = 5
	j := &job{
		rec:     JobRecord{ID: "job-direct", Deck: testDeck("alice", "normal", 12, segments*1e-8, 1e-8)},
		journal: telemetry.NewJournal(0),
		stop:    make(chan struct{}),
	}
	tEnd, hops, err := p.executeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	if n := j.tele.Trace().Phase(telemetry.PhaseAnalyze).Count(); n != segments {
		t.Fatalf("%d segments ran %d cluster scans, want %d", segments, n, segments)
	}
	var obs []telemetry.Event
	for _, e := range j.journal.Events() {
		if e.Type == "observable" {
			obs = append(obs, e)
		}
	}
	if len(obs) != segments {
		t.Fatalf("%d segments journalled %d observable events, want %d", segments, len(obs), segments)
	}
	ck, err := core.LoadCheckpointFile(jobCheckpointPath(p.JobDir(j.rec.ID)))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Hops != hops || ck.Time != tEnd {
		t.Fatalf("final checkpoint at t=%v hops=%d, run ended at t=%v hops=%d", ck.Time, ck.Hops, tEnd, hops)
	}
	a := cluster.Analyze(ck.Box, 2)
	want := fmt.Sprintf(`{"hops":%d,"isolated":%d,"clusters":%d,"max_cluster":%d}`, hops, a.Isolated, a.Clusters, a.MaxSize)
	if last := obs[segments-1]; last.Sim != tEnd || last.Msg != want {
		t.Fatalf("last observable at t=%v %s, want t=%v %s", last.Sim, last.Msg, tEnd, want)
	}
}

// TestWALFsyncHistogramExported: every acknowledged transition fsyncs
// the WAL, and the latency histogram shows up in the controller's own
// registry — count, sum, buckets.
func TestWALFsyncHistogramExported(t *testing.T) {
	p := openTestPlane(t, Config{Telemetry: telemetry.NewSet()})
	rec, err := p.Submit(testDeck("alice", "normal", 10, 1e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() })

	out := clusterText(t, p)
	count := regexp.MustCompile(telemetry.MetricCtlWALFsyncSecs + `_count (\d+)`).FindStringSubmatch(out)
	if count == nil {
		t.Fatalf("WAL fsync histogram missing from cluster metrics:\n%s", out)
	}
	if count[1] == "0" {
		t.Fatal("WAL fsync histogram observed nothing over a full job lifecycle")
	}
	if !strings.Contains(out, telemetry.MetricCtlWALFsyncSecs+`_bucket{le="+Inf"}`) {
		t.Fatalf("WAL fsync histogram has no +Inf bucket:\n%s", out)
	}
}

// TestJobJournalDropCounterExported: the per-job flight recorder binds
// its drop counter into the job's registry, so a job overrunning its
// ring is visible in cluster metrics while it runs.
func TestJobJournalDropCounterExported(t *testing.T) {
	p := openTestPlane(t, Config{Telemetry: telemetry.NewSet()})
	rec, err := p.Submit(testDeck("alice", "normal", 11, 4e-7, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	want := telemetry.MetricEventsDropped + `{job="` + rec.ID + `"}`
	deadline := time.Now().Add(120 * time.Second)
	for !strings.Contains(clusterText(t, p), want) {
		if time.Now().After(deadline) {
			t.Fatalf("job registry never exported %s:\n%s", want, clusterText(t, p))
		}
		if r, _ := p.Get(rec.ID); r.State.Terminal() {
			t.Fatalf("job reached %s before %s appeared", r.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.Cancel(rec.ID)
	waitJob(t, p, rec.ID, "cancel", func(r JobRecord) bool { return r.State.Terminal() })
}
