package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind int

// The three family types, rendered as Prometheus TYPE lines.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String is the kind's Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic counter. The nil
// counter is a valid no-op, so uninstrumented code paths need no
// conditionals.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefTimeBuckets are the default histogram bounds for phase timings, in
// seconds: log-spaced from 1 µs (one cached hop-energy lookup) to 10 s
// (a whole run segment).
var DefTimeBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// An observation v lands in the first bucket whose upper bound is
// >= v (Prometheus `le` semantics); values above every bound land in
// the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefTimeBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds not ascending")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot captures the histogram's current state. Per-bucket counts
// are individually atomic; a snapshot taken concurrently with
// observers may be mid-observation torn across fields (see the
// Registry consistency model).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, ascending; +Inf implicit
	Counts []int64   // per-bucket (not cumulative); len(Bounds)+1
	Sum    float64
	Count  int64
}

// series is one labelled instance of a metric family.
type series struct {
	labels string // canonical rendered label set, "" for none
	ctr    *Counter
	hist   *Histogram
	ctrFn  func() int64
	ggeFn  func() float64
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	order  []string // series keys in registration order
	series map[string]*series
}

// Registry is a process-local metric store. All methods are safe for
// concurrent use, and all getters are get-or-create: asking for the
// same (name, labels) twice returns the same instrument, which is what
// lets independently constructed layers share counters.
//
// Consistency model: every individual value is atomic — a scrape never
// sees a torn counter — but a snapshot is not a point-in-time cut
// across series: values are read one after another while writers keep
// running, so cross-metric invariants (e.g. hits+misses == lookups)
// may be off by in-flight operations. Within one histogram, Count may
// momentarily exceed the bucket sum for the same reason.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString renders alternating key/value pairs into the canonical
// Prometheus label form `{k="v",...}` (keys in argument order).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: odd label key/value list")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// lookup finds (creating if needed) the series for (name, labels),
// enforcing kind consistency, and runs attach on it under the registry
// lock: callers on different goroutines that register the same series
// must end up holding one instrument, so the instrument is created where
// the series is.
func (r *Registry) lookup(name, help string, kind Kind, labels []string, attach func(*series)) {
	key := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	attach(s)
}

// Counter returns the counter for (name, labels), creating it on first
// use. labels are alternating key/value pairs. Nil registries return a
// nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	var c *Counter
	r.lookup(name, help, KindCounter, labels, func(s *series) {
		if s.ctrFn != nil {
			panic(fmt.Sprintf("telemetry: %q%s already registered as a function metric", name, s.labels))
		}
		if s.ctr == nil {
			s.ctr = &Counter{}
		}
		c = s.ctr
	})
	return c
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds (DefTimeBuckets when nil). Bounds are fixed by
// the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	var h *Histogram
	r.lookup(name, help, KindHistogram, labels, func(s *series) {
		if s.hist == nil {
			s.hist = newHistogram(bounds)
		}
		h = s.hist
	})
	return h
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot/render time. This is how a subsystem with its own internal
// counters (e.g. the evaluation service's Stats) exposes them without
// double bookkeeping: the registry and the subsystem's own snapshot
// read the very same storage and can never disagree.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, help, KindCounter, labels, func(s *series) {
		if s.ctr != nil {
			panic(fmt.Sprintf("telemetry: %q%s already registered as a stored counter", name, s.labels))
		}
		s.ctrFn = fn
	})
}

// GaugeFunc registers a gauge read from fn at snapshot/render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, help, KindGauge, labels, func(s *series) {
		s.ggeFn = fn
	})
}

// SeriesSnapshot is one series' value at snapshot time.
type SeriesSnapshot struct {
	// Labels is the rendered label set (`{k="v",...}`, "" for none) and
	// Value the counter or gauge reading.
	Labels    string
	Value     float64
	Histogram *HistogramSnapshot // nil unless the family is a histogram
}

// FamilySnapshot is one metric family at snapshot time.
type FamilySnapshot struct {
	// Name, Help and Kind are the family's identity as registered;
	// Series holds its series in label order.
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesSnapshot
}

// Snapshot is a copy of the whole registry (see the Registry
// consistency model for its guarantees).
type Snapshot struct {
	Families []FamilySnapshot // in name order
}

func (s *series) value() float64 {
	switch {
	case s.ctrFn != nil:
		return float64(s.ctrFn())
	case s.ggeFn != nil:
		return s.ggeFn()
	case s.ctr != nil:
		return float64(s.ctr.Value())
	}
	return 0
}

// Snapshot captures every family and series in registration order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{Families: make([]FamilySnapshot, 0, len(r.order))}
	for _, name := range r.order {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		for _, key := range f.order {
			s := f.series[key]
			ss := SeriesSnapshot{Labels: s.labels}
			if s.hist != nil {
				h := s.hist.Snapshot()
				ss.Histogram = &h
				ss.Value = h.Sum
			} else {
				ss.Value = s.value()
			}
			fs.Series = append(fs.Series, ss)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}

// Merge adds o's families and series to s. Each origin is labelled
// apart before it is merged (see AddLabel), so no series may be in both:
// a series of o whose family and labels s already holds is an error, as
// is a family o exports with another kind. On an error s keeps the
// families merged before the clash.
func (s *Snapshot) Merge(o Snapshot) error {
	byName := map[string]int{}
	for i, f := range s.Families {
		byName[f.Name] = i
	}
	for _, of := range o.Families {
		i, ok := byName[of.Name]
		if !ok {
			s.Families = append(s.Families, of)
			continue
		}
		f := &s.Families[i]
		if f.Kind != of.Kind {
			return fmt.Errorf("telemetry: merging %q as %s into %s", of.Name, of.Kind, f.Kind)
		}
		for _, os := range of.Series {
			for _, ss := range f.Series {
				if ss.Labels == os.Labels {
					return fmt.Errorf("telemetry: series %s%s is in both snapshots", of.Name, os.Labels)
				}
			}
		}
		f.Series = append(f.Series, of.Series...)
	}
	return nil
}

// AddLabel prepends key="value" to every series in the snapshot. It is
// the relabelling step of a multi-origin view: each running job's
// snapshot gets its job label, so identically named series from
// different origins stay distinct when merged into the cluster view.
func (s *Snapshot) AddLabel(key, value string) {
	rendered := key + `="` + escapeLabel(value) + `"`
	for fi := range s.Families {
		f := &s.Families[fi]
		for si := range f.Series {
			ss := &f.Series[si]
			if ss.Labels == "" {
				ss.Labels = "{" + rendered + "}"
			} else {
				ss.Labels = "{" + rendered + "," + ss.Labels[1:]
			}
		}
	}
}

// Sort orders families by name and each family's series by label set.
// Merge appends unknown families and series in encounter order, so a
// multi-origin merge is order-sensitive in its layout (never in its
// values); sorting afterwards makes the merged snapshot
// deterministic whatever order the origins were merged in.
func (s *Snapshot) Sort() {
	sort.SliceStable(s.Families, func(i, j int) bool {
		return s.Families[i].Name < s.Families[j].Name
	})
	for fi := range s.Families {
		f := &s.Families[fi]
		sort.SliceStable(f.Series, func(i, j int) bool {
			return f.Series[i].Labels < f.Series[j].Labels
		})
	}
}

// formatFloat renders a value the way Prometheus text exposition
// expects (shortest round-trip form; +Inf spelled literally).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, one line per
// series, cumulative `le` buckets plus _sum/_count for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	return snap.WritePrometheus(w)
}

// WritePrometheus renders a snapshot (see Registry.WritePrometheus).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, ss := range f.Series {
			if f.Kind == KindHistogram && ss.Histogram != nil {
				if err := writeHistogram(w, f.Name, ss); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, ss.Labels, formatFloat(ss.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, ss SeriesSnapshot) error {
	h := ss.Histogram
	// Fold the le label into an existing label set or start a new one.
	withLE := func(le string) string {
		if ss.Labels == "" {
			return `{le="` + le + `"}`
		}
		return ss.Labels[:len(ss.Labels)-1] + `,le="` + le + `"}`
	}
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(formatFloat(b)), cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, ss.Labels, formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, ss.Labels, h.Count)
	return err
}
