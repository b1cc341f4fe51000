package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestPhaseGetOrCreate: the shared-path contract — two layers resolving
// the same path reach the same node, so span totals aggregate without
// handle threading.
func TestPhaseGetOrCreate(t *testing.T) {
	tr := NewTracer(nil)
	a := tr.PhaseAt(PhaseRun, PhaseSegment, PhaseStep)
	b := tr.Phase(PhaseRun).Child(PhaseSegment).Child(PhaseStep)
	if a != b {
		t.Fatal("same path must resolve to the same node")
	}
	if a.path != "run/segment/step" {
		t.Fatalf("path %q", a.path)
	}
}

// TestPhaseAccumulation: observations accumulate seconds and counts,
// and the snapshot tree mirrors the structure.
func TestPhaseAccumulation(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Phase("run")
	child := root.Child("eval")
	root.Observe(100 * time.Millisecond)
	child.Observe(30 * time.Millisecond)
	child.Observe(40 * time.Millisecond)

	if root.Count() != 1 || child.Count() != 2 {
		t.Fatalf("counts %d/%d", root.Count(), child.Count())
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "run" || len(spans[0].Children) != 1 {
		t.Fatalf("span tree shape wrong: %+v", spans)
	}
	n := spans[0]
	if got, want := n.Children[0].Seconds, 0.07; !closeTo(got, want) {
		t.Fatalf("child seconds %v, want %v", got, want)
	}
	if got, want := n.Seconds, 0.1; !closeTo(got, want) {
		t.Fatalf("root seconds %v, want %v", got, want)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestPhaseSpan: Start/EndMsg records a span; a nil phase opens a zero
// span whose close is a no-op. The untraced span allocates nothing and
// stays a pointer, a start time and one pointer wide.
func TestPhaseSpan(t *testing.T) {
	tr := NewTracer(nil)
	p := tr.Phase("x")
	sp := p.Start()
	time.Sleep(time.Millisecond)
	sp.EndMsg("")
	if p.Count() != 1 || p.Seconds() <= 0 {
		t.Fatalf("span did not record: count=%d sec=%v", p.Count(), p.Seconds())
	}
	var nilPh *Phase
	nilPh.Start().EndMsg("") // must not panic
	if allocs := testing.AllocsPerRun(100, func() { p.Start().EndMsg("") }); allocs != 0 {
		t.Fatalf("untraced span allocates %v times", allocs)
	}
	if got, max := unsafe.Sizeof(Span{}), unsafe.Sizeof(struct {
		p     *Phase
		start time.Time
		tr    *int
	}{}); got > max {
		t.Fatalf("Span is %d bytes, want at most %d", got, max)
	}
}

// TestPhaseConcurrency: parallel ranks hammer the same node (run under
// -race).
func TestPhaseConcurrency(t *testing.T) {
	tr := NewTracer(NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.PhaseAt("run", "segment", "sector").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if n := tr.PhaseAt("run", "segment", "sector").Count(); n != 4000 {
		t.Fatalf("lost observations: %d", n)
	}
}

// TestTracerFeedsRegistry: every phase doubles as a
// tkmc_phase_seconds{phase=...} histogram.
func TestTracerFeedsRegistry(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	tr.PhaseAt("run", "segment").Observe(5 * time.Millisecond)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `tkmc_phase_seconds_count{phase="run/segment"} 1`) {
		t.Fatalf("phase histogram missing:\n%s", sb.String())
	}
}

// TestWriteTable: the run-summary breakdown renders counts, totals and
// percent-of-parent, with idle phases omitted.
func TestWriteTable(t *testing.T) {
	tr := NewTracer(nil)
	run := tr.Phase("run")
	run.Observe(time.Second)
	run.Child("segment").Observe(900 * time.Millisecond)
	run.Child("idle") // never observed: must not render
	var sb strings.Builder
	if err := tr.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"phase", "run", "  segment", "90.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "idle") {
		t.Errorf("idle phase must be omitted:\n%s", out)
	}
	var nilTr *Tracer
	if err := nilTr.WriteTable(&sb); err != nil {
		t.Fatal("nil tracer WriteTable must be a no-op")
	}
}
