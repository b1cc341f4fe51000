package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"
)

// Tracer aggregates spans into a per-phase timing tree. It is
// deliberately not an allocating per-span tracer: a KMC step fires
// four spans and a run fires millions of steps, so each span is two
// wall-clock reads and one histogram observation (two atomic adds and a
// CAS) on a pre-resolved *Phase node; only a span opened under a trace
// context (Phase.StartUnder) also journals itself, into the tracer's
// journal. The tree (phase → children, each with total seconds and a count) is
// what the end-of-run breakdown table and the coverage test read.
//
// Phase resolution is get-or-create on (parent, name), so independent
// layers referring to the same well-known path (the Phase* constants)
// share one node without handles being threaded through constructors.
type Tracer struct {
	reg *Registry
	jr  *Journal // where spans opened under a trace context record; may be nil

	mu    sync.Mutex
	roots map[string]*Phase
	order []string
}

// NewTracer builds a tracer without a journal: its spans only
// aggregate (NewSet and NewSetOn build one that journals). Each phase
// keeps its time in one histogram: with a non-nil reg that is the registry's
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

// Span is one in-flight timed operation on a phase — the package's only
// span. Closing it (EndMsg) folds its duration into the phase's
// histogram; a span opened under a valid trace context (StartUnder) on a
// tracer with a journal also records itself there, named after the
// phase, with the same duration. The zero value — what a nil phase
// opens — is a no-op, and an untraced span allocates nothing.
type Span struct {
	p     *Phase
	start time.Time
	tr    *spanTrace // nil unless the span journals itself
}

// spanTrace is a journalled span's lineage.
type spanTrace struct {
	ctx    Context // the span's own context
	parent uint64  // the span it nests under, zero for a trace root
}

// Start opens an aggregate-only span on the phase — the hot-path form.
// Always pair with EndMsg.
func (p *Phase) Start() Span {
	if p == nil {
		return Span{}
	}
	return Span{p: p, start: time.Now()}
}

// StartUnder opens a span on the phase nested under the parent context:
// with a valid context and a tracer that has a journal, the span mints
// its own ID within the parent's trace and journals itself when it
// closes; otherwise it is exactly Start.
func (p *Phase) StartUnder(parent Context) Span {
	if p == nil || p.t.jr == nil || !parent.Valid() {
		return p.Start()
	}
	tr := &spanTrace{ctx: Context{Trace: parent.Trace, Span: mint()}, parent: parent.Span}
	return Span{p: p, start: time.Now(), tr: tr}
}

// Context returns the span's own trace context — what child operations
// (and the wire) nest under. It is zero on a span that does not journal.
func (s Span) Context() Context {
	if s.tr == nil {
		return Context{}
	}
	return s.tr.ctx
}

// Event journals an instantaneous annotation under the span — a retry, a
// failover leg, a ring pick — as its own zero-duration child span. It is
// a no-op on a span that does not journal.
func (s Span) Event(format string, args ...any) {
	if s.tr != nil {
		s.record(sprintf(format, args), mint(), s.tr.ctx.Span, 0)
	}
}

// EndMsg closes the span. One clock read gives its duration, which the
// phase's histogram observes and — on a journalled span — the journal
// records, under the phase's name with the formatted detail appended
// ("serve cache=miss"); an empty format records the bare name.
func (s Span) EndMsg(format string, args ...any) {
	if s.p != nil { // inlined, so a zero span costs its caller one compare
		s.end(format, args)
	}
}

func (s Span) end(format string, args []any) {
	d := time.Since(s.start)
	s.p.Observe(d)
	if s.tr == nil {
		return
	}
	msg := s.p.name
	if format != "" {
		msg += " " + sprintf(format, args)
	}
	s.record(msg, s.tr.ctx.Span, s.tr.parent, d.Seconds())
}

// record journals one span event of the span's trace.
func (s Span) record(msg string, span, parent uint64, dur float64) {
	e := Event{Type: SpanEventType, Msg: msg, Sim: -1, Trace: ID(s.tr.ctx.Trace), Span: ID(span), Dur: dur}
	if parent != 0 {
		e.Parent = ID(parent)
	}
	s.p.t.jr.record(e)
}

// sprintf formats only when there is something to format, so a bare
// message keeps any literal '%'.
func sprintf(format string, args []any) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
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
	// Name is the phase's own name and Path its slash-joined path from
	// the root; Count and Seconds are its closed spans and their total
	// time; Children are its sub-phases in registration order.
	Name     string     `json:"name"`
	Path     string     `json:"path"`
	Count    int64      `json:"count"`
	Seconds  float64    `json:"seconds"`
	Children []SpanNode `json:"children,omitempty"`
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

// formatSeconds renders a duration with a human-scale unit — the one
// formatter behind the phase table and the assembled trace tree.
func formatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fµs", s*1e6)
	}
}
