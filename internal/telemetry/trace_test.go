package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMintUniqueness(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		id := mint()
		if id == 0 {
			t.Fatal("mint returned zero")
		}
		if seen[id] {
			t.Fatalf("mint repeated ID %016x after %d mints", id, i)
		}
		seen[id] = true
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := Context{Trace: 0xfeedc0dedeadbeef, Span: 0x0123456789abcdef}
	var b [ContextSize]byte
	c.Encode(b[:])
	if got := DecodeContext(b[:]); got != c {
		t.Fatalf("round trip: got %+v, want %+v", got, c)
	}
	// Little-endian: the first byte is the trace ID's low byte.
	if b[0] != 0xef {
		t.Fatalf("wire byte 0 = %#x, want the trace ID's low byte 0xef", b[0])
	}
}

func TestParseID(t *testing.T) {
	id := mint()
	back, err := ParseID(ID(id))
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("ID/ParseID round trip: %016x != %016x", back, id)
	}
	for _, bad := range []string{"", "zz", "0", "10000000000000000"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

// TestNilSpanIsNoOp: a span journals only from a live phase whose tracer
// has a journal, under a valid context; every other span records
// nothing, and the zero span's methods are no-ops.
func TestNilSpanIsNoOp(t *testing.T) {
	jr := NewJournal(8)
	for name, sp := range map[string]Span{
		"journal-less tracer": NewTracer(nil).Phase("x").StartUnder(NewTrace()),
		"invalid parent":      NewSetOn(jr).Tracer.Phase("x").StartUnder(Context{}),
		"nil phase":           (*Phase)(nil).StartUnder(NewTrace()),
	} {
		if c := sp.Context(); c.Valid() {
			t.Errorf("%s: span context = %+v, want zero", name, c)
		}
		sp.Event("no-op %d", 1)
		sp.EndMsg("still %s", "a no-op")
	}
	if n := len(jr.Events()); n != 0 {
		t.Fatalf("untraced spans journalled %d events", n)
	}
	var sp Span
	sp.Event("no-op")
	sp.EndMsg("")
}

// TestSpanLineage runs a root → child → annotation chain through a real
// journal and checks the recorded trace/span/parent IDs chain up.
func TestSpanLineage(t *testing.T) {
	jr := NewJournal(16)
	tr := NewSetOn(jr).Tracer
	root := NewTrace()
	run := tr.Phase("run").StartUnder(root)
	seg := tr.PhaseAt("run", "segment").StartUnder(run.Context())
	seg.Event("retry node=1")
	seg.EndMsg("hops=%d", 42)
	run.EndMsg("")

	events := jr.Events()
	if len(events) != 3 {
		t.Fatalf("journal holds %d events, want 3", len(events))
	}
	// Order of recording: the annotation, then segment end, then run end.
	annot, segEv, runEv := events[0], events[1], events[2]
	if runEv.Msg != "run" || runEv.Parent != "" {
		t.Errorf("run span = %+v, want root (no parent)", runEv)
	}
	if segEv.Msg != "segment hops=42" {
		t.Errorf("segment msg = %q", segEv.Msg)
	}
	if segEv.Parent != runEv.Span {
		t.Errorf("segment parent %s != run span %s", segEv.Parent, runEv.Span)
	}
	if annot.Msg != "retry node=1" || annot.Parent != segEv.Span {
		t.Errorf("annotation = %+v, want child of segment %s", annot, segEv.Span)
	}
	for _, e := range events {
		if e.Type != SpanEventType {
			t.Errorf("event type %q, want %q", e.Type, SpanEventType)
		}
		if e.Trace != root.TraceID() {
			t.Errorf("event trace %s, want %s", e.Trace, root.TraceID())
		}
	}
	if segEv.Dur < 0 {
		t.Errorf("segment duration %g < 0", segEv.Dur)
	}
}

// TestJournalledSpanIsPhaseSpan: a traced span is one measurement — the
// histogram observes exactly the duration the journal records — and
// untraced spans on the same phase still aggregate.
func TestJournalledSpanIsPhaseSpan(t *testing.T) {
	jr := NewJournal(8)
	ph := NewSetOn(jr).Tracer.PhaseAt("evalserve", "serve")
	sp := ph.StartUnder(NewTrace())
	time.Sleep(time.Millisecond)
	sp.EndMsg("cache=%s", "hit")
	events := jr.Events()
	if len(events) != 1 || events[0].Msg != "serve cache=hit" {
		t.Fatalf("journal = %+v, want one span named after the phase", events)
	}
	if ph.Count() != 1 || ph.Seconds() != events[0].Dur {
		t.Fatalf("histogram holds %d spans / %v s, journal %v s: want one and the same duration",
			ph.Count(), ph.Seconds(), events[0].Dur)
	}
	ph.Start().EndMsg("")
	if ph.Count() != 2 || len(jr.Events()) != 1 {
		t.Fatalf("untraced span: count %d, %d events; want 2 and 1", ph.Count(), len(jr.Events()))
	}
}

// TestCollectAssemble flushes two process journals (engine and server),
// collects one trace across them, and checks the assembled tree: spans
// nest by lineage, cross-journal parents resolve, a second trace in the
// same journals is excluded, and an orphan is marked.
func TestCollectAssemble(t *testing.T) {
	dir := t.TempDir()

	// "Engine" process: run → segment → eval.
	engine := NewJournal(32)
	et := NewSetOn(engine).Tracer
	root := NewTrace()
	run := et.Phase("run").StartUnder(root)
	seg := et.PhaseAt("run", "segment").StartUnder(run.Context())
	eval := et.PhaseAt("fleet", "eval").StartUnder(seg.Context())
	eval.EndMsg("node=0")

	// "Server" process: the serve span's parent is the engine's eval
	// span, carried over the wire as a Context.
	server := NewJournal(32)
	st := NewSetOn(server).Tracer
	serve := st.PhaseAt("evalserve", "serve").StartUnder(eval.Context())
	batch := st.PhaseAt("evalserve", "batch").StartUnder(serve.Context())
	batch.EndMsg("size=7")
	serve.EndMsg("cache=miss")

	// An orphan: its parent span was never journalled anywhere (the
	// process holding it died before flushing).
	lost := et.Phase("orphan-leg").StartUnder(Context{Trace: root.Trace, Span: mint()})
	lost.EndMsg("")

	// A different trace that must NOT appear in the assembly.
	other := et.Phase("other-trace-span").StartUnder(NewTrace())
	other.EndMsg("")

	seg.EndMsg("")
	run.EndMsg("")

	enginePath := filepath.Join(dir, "engine.jsonl")
	serverPath := filepath.Join(dir, "server.jsonl")
	if err := engine.FlushFile(enginePath); err != nil {
		t.Fatal(err)
	}
	if err := server.FlushFile(serverPath); err != nil {
		t.Fatal(err)
	}

	recs, err := Collect(root.Trace, []string{enginePath, serverPath})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("collected %d spans, want 6 (other trace excluded)", len(recs))
	}

	tree := Assemble(root.Trace, recs)
	if got := tree.Spans(); got != 6 {
		t.Fatalf("tree holds %d spans, want 6", got)
	}
	// Walk: root → run → segment → eval → serve → batch.
	find := func(n *Node, prefix string) *Node {
		var rec func(n *Node) *Node
		rec = func(n *Node) *Node {
			if strings.HasPrefix(n.Name, prefix) && n.Span != 0 {
				return n
			}
			for _, c := range n.Children {
				if f := rec(c); f != nil {
					return f
				}
			}
			return nil
		}
		return rec(n)
	}
	serveN := find(tree, "serve")
	if serveN == nil {
		t.Fatal("serve span missing from the tree")
	}
	if serveN.Source != serverPath {
		t.Errorf("serve span source %q, want %q", serveN.Source, serverPath)
	}
	evalN := find(tree, "eval")
	if evalN == nil {
		t.Fatal("eval span missing")
	}
	// Cross-journal nesting: serve must be a child of eval.
	okNested := false
	for _, c := range evalN.Children {
		if c == serveN {
			okNested = true
		}
	}
	if !okNested {
		t.Error("serve span did not nest under the engine's eval span across journals")
	}
	orphanN := find(tree, "orphan-leg")
	if orphanN == nil || !orphanN.Orphan {
		t.Fatalf("orphan span = %+v, want top-level with Orphan set", orphanN)
	}

	var sb strings.Builder
	if err := tree.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "trace "+root.TraceID()+": 6 spans") {
		t.Errorf("header missing from rendering:\n%s", out)
	}
	if !strings.Contains(out, "<parent span missing>") {
		t.Errorf("orphan mark missing from rendering:\n%s", out)
	}
	if strings.Contains(out, "other-trace-span") {
		t.Errorf("foreign trace leaked into the rendering:\n%s", out)
	}
}

// TestReadJournalSkipsGarbage pins crash tolerance: a journal with a
// torn / non-JSON line still yields its intact lines.
func TestReadJournalSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	jr := NewJournal(8)
	NewSetOn(jr).Tracer.Phase("survivor").StartUnder(NewTrace()).EndMsg("")
	path := filepath.Join(dir, "torn.jsonl")
	if err := jr.FlushFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"span","trace":"beef` + "\n") // torn mid-write
	f.Close()

	events, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Msg != "survivor" {
		t.Fatalf("events = %+v, want just the survivor span", events)
	}
}

// TestAssembleDuplicateFlush pins that a journal flushed twice (the
// same span appearing in two files) does not duplicate tree nodes.
func TestAssembleDuplicateFlush(t *testing.T) {
	dir := t.TempDir()
	jr := NewJournal(8)
	root := NewTrace()
	NewSetOn(jr).Tracer.Phase("once").StartUnder(root).EndMsg("")
	p1 := filepath.Join(dir, "a.jsonl")
	p2 := filepath.Join(dir, "b.jsonl")
	if err := jr.FlushFile(p1); err != nil {
		t.Fatal(err)
	}
	if err := jr.FlushFile(p2); err != nil {
		t.Fatal(err)
	}
	recs, err := Collect(root.Trace, []string{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	tree := Assemble(root.Trace, recs)
	if got := tree.Spans(); got != 1 {
		t.Fatalf("duplicate flush produced %d spans, want 1", got)
	}
}

// TestStartWallOrdering checks sibling ordering uses start time (wall
// minus duration), not completion order.
func TestStartWallOrdering(t *testing.T) {
	now := time.Now()
	tid := mint()
	recs := []SpanRecord{
		// Finished last but started first (long span).
		{Trace: tid, Span: 2, Name: "first-started", Wall: now.Add(time.Second), Dur: 2.0},
		// Finished first but started second.
		{Trace: tid, Span: 3, Name: "second-started", Wall: now, Dur: 0.5},
	}
	tree := Assemble(tid, recs)
	if len(tree.Children) != 2 {
		t.Fatalf("tree has %d roots, want 2", len(tree.Children))
	}
	if tree.Children[0].Name != "first-started" {
		t.Fatalf("sibling order = [%s, %s], want start-time order", tree.Children[0].Name, tree.Children[1].Name)
	}
}

// tracedRequest returns the client-side per-request tracing tax: one
// eval span with a pick annotation and a wire-context encode, against a
// live ring journal — what the fleet client adds per traced request.
func tracedRequest() func() {
	tr := NewSetOn(NewJournal(512)).Tracer
	seg := tr.PhaseAt("run", "segment").StartUnder(NewTrace())
	eval := tr.PhaseAt("fleet", "eval")
	var wire [ContextSize]byte
	return func() {
		sp := eval.StartUnder(seg.Context())
		sp.Event("pick node=%s", "10.0.0.1:7077")
		sp.Context().Encode(wire[:])
		sp.EndMsg("")
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	req := tracedRequest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req()
	}
}

// TestSpanRecordAllocs bounds the traced-request tax BenchmarkSpanRecord
// times: the journalled span, its event and its end record stay on the
// flight recorder's ring, at no more than 8 allocations per request.
func TestSpanRecordAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(1000, tracedRequest()); allocs > 8 {
		t.Fatalf("a traced request allocates %v times, want at most 8", allocs)
	}
}
