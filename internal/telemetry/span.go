package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"
)

// Tracer aggregates hot-path spans into a per-phase timing tree. It is
// deliberately not an allocating per-span tracer: a KMC step fires
// four spans and a run fires millions of steps, so each span is two
// wall-clock reads and one histogram observation (two atomic adds and a
// CAS) on a pre-resolved *Phase node.
// The tree (phase → children, each with total seconds and a count) is
// what the end-of-run breakdown table and the coverage test read.
//
// Phase resolution is get-or-create on (parent, name), so independent
// layers referring to the same well-known path (the Phase* constants)
// share one node without handles being threaded through constructors.
type Tracer struct {
	reg *Registry

	mu    sync.Mutex
	roots map[string]*Phase
	order []string
}

// NewTracer builds a tracer. Each phase keeps its time in one
// histogram: with a non-nil reg that is the registry's
// tkmc_phase_seconds series labelled with the phase's full path, with
// nil an unregistered one. Seconds and Count read it, so two tracers on
// one registry would share every phase's totals; production keeps one
// tracer per registry (NewSet, and the control plane's per-job set).
func NewTracer(reg *Registry) *Tracer {
	return &Tracer{reg: reg, roots: map[string]*Phase{}}
}

// Phase is one node of the timing tree. Concurrent spans on the same
// phase (e.g. parallel ranks in the same sector phase) accumulate
// atomically; their wall-clock intervals may overlap, so a phase's
// total is CPU-like ("rank-seconds") on parallel runs and wall-like on
// serial runs.
type Phase struct {
	t    *Tracer
	name string
	path string

	hist *Histogram // the phase's only store of time and span count

	mu       sync.Mutex
	children map[string]*Phase
	order    []string
}

// Phase returns (creating if needed) a root-level phase. Nil tracers
// return a nil (no-op) phase.
func (t *Tracer) Phase(name string) *Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.roots[name]
	if p == nil {
		p = t.newPhase(name, name)
		t.roots[name] = p
		t.order = append(t.order, name)
	}
	return p
}

// PhaseAt resolves a phase by path, creating intermediate nodes as
// needed: PhaseAt("run", "segment", "eval") is
// Phase("run").Child("segment").Child("eval").
func (t *Tracer) PhaseAt(path ...string) *Phase {
	if t == nil || len(path) == 0 {
		return nil
	}
	p := t.Phase(path[0])
	for _, name := range path[1:] {
		p = p.Child(name)
	}
	return p
}

func (t *Tracer) newPhase(name, path string) *Phase {
	p := &Phase{t: t, name: name, path: path, children: map[string]*Phase{}}
	if t.reg != nil {
		p.hist = t.reg.Histogram(MetricPhaseSeconds,
			"Span durations per phase of the KMC step pipeline.",
			DefTimeBuckets, "phase", path)
	} else {
		p.hist = newHistogram(DefTimeBuckets)
	}
	return p
}

// Child returns (creating if needed) a sub-phase. Nil phases return
// nil.
func (p *Phase) Child(name string) *Phase {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.children[name]
	if c == nil {
		c = p.t.newPhase(name, p.path+"/"+name)
		p.children[name] = c
		p.order = append(p.order, name)
	}
	return c
}

// Stopwatch is one in-flight span. The zero value (from a nil phase)
// is a no-op.
type Stopwatch struct {
	p     *Phase
	start time.Time
}

// Start opens a span on the phase. Always pair with Stop.
func (p *Phase) Start() Stopwatch {
	if p == nil {
		return Stopwatch{}
	}
	return Stopwatch{p: p, start: time.Now()}
}

// Stop closes the span, folding its duration into the phase.
func (sw Stopwatch) Stop() {
	if sw.p == nil {
		return
	}
	sw.p.Observe(time.Since(sw.start))
}

// Observe records a span of the given duration directly.
func (p *Phase) Observe(d time.Duration) {
	if p == nil {
		return
	}
	p.hist.Observe(d.Seconds())
}

// Seconds returns the phase's accumulated span time.
func (p *Phase) Seconds() float64 {
	if p == nil {
		return 0
	}
	return math.Float64frombits(p.hist.sum.Load())
}

// Count returns the number of closed spans.
func (p *Phase) Count() int64 {
	if p == nil {
		return 0
	}
	return p.hist.count.Load()
}

// SpanNode is one node of a timing-tree snapshot.
type SpanNode struct {
	Name     string     `json:"name"`
	Path     string     `json:"path"`
	Count    int64      `json:"count"`
	Seconds  float64    `json:"seconds"`
	Children []SpanNode `json:"children,omitempty"`
}

// ChildSeconds sums the direct children's totals.
func (n SpanNode) ChildSeconds() float64 {
	var s float64
	for _, c := range n.Children {
		s += c.Seconds
	}
	return s
}

// Coverage reports which fraction of this node's time its direct
// children account for (1 for a leaf with no time unaccounted, 0 for
// an idle node). It is the self-check that the instrumentation sees
// where a run's time actually goes.
func (n SpanNode) Coverage() float64 {
	if n.Seconds <= 0 {
		return 0
	}
	return n.ChildSeconds() / n.Seconds
}

func (p *Phase) snapshot() SpanNode {
	n := SpanNode{Name: p.name, Path: p.path, Count: p.Count(), Seconds: p.Seconds()}
	p.mu.Lock()
	order := append([]string(nil), p.order...)
	children := make([]*Phase, 0, len(order))
	for _, name := range order {
		children = append(children, p.children[name])
	}
	p.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.snapshot())
	}
	return n
}

// Spans snapshots the whole timing forest in registration order.
func (t *Tracer) Spans() []SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	order := append([]string(nil), t.order...)
	roots := make([]*Phase, 0, len(order))
	for _, name := range order {
		roots = append(roots, t.roots[name])
	}
	t.mu.Unlock()
	out := make([]SpanNode, 0, len(roots))
	for _, r := range roots {
		out = append(out, r.snapshot())
	}
	return out
}

// WriteTable renders the per-phase timing breakdown as an indented
// table — the run-summary view of where each KMC step spends its time
// (the paper's Sec. 5 per-step decomposition). Percentages are of the
// parent phase's total.
func (t *Tracer) WriteTable(w io.Writer) error {
	if t == nil {
		return nil
	}
	roots := t.Spans()
	if len(roots) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-32s %12s %14s %12s %8s\n", "phase", "count", "total", "mean", "%parent"); err != nil {
		return err
	}
	for _, r := range roots {
		if err := writeSpanRows(w, r, 0, r.Seconds); err != nil {
			return err
		}
	}
	return nil
}

func writeSpanRows(w io.Writer, n SpanNode, depth int, parentSeconds float64) error {
	if n.Count == 0 && n.Seconds == 0 && len(n.Children) == 0 {
		return nil
	}
	name := strings.Repeat("  ", depth) + n.Name
	pct := "—"
	if depth > 0 && parentSeconds > 0 {
		pct = fmt.Sprintf("%.1f", 100*n.Seconds/parentSeconds)
	}
	mean := "—"
	if n.Count > 0 {
		mean = formatSeconds(n.Seconds / float64(n.Count))
	}
	if _, err := fmt.Fprintf(w, "%-32s %12d %14s %12s %8s\n",
		name, n.Count, formatSeconds(n.Seconds), mean, pct); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeSpanRows(w, c, depth+1, n.Seconds); err != nil {
			return err
		}
	}
	return nil
}

// formatSeconds renders a duration with a human-scale unit.
func formatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s >= 1:
		return fmt.Sprintf("%.3f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3f ms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.3f µs", s*1e6)
	default:
		return fmt.Sprintf("%.0f ns", s*1e9)
	}
}
