package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers (never by the program under test). Start and
// End are nanoseconds since the tracer was created; Parent is the index
// of the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the child process ends. The mutex
// is for the parallel workload, where each rank's model wrapper records
// from its own goroutine; on the serial workloads it is uncontended.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	rep   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Rep: t.rep})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children that overlap each other
// (ranks working concurrently under one parent) are counted once, and a
// child is clipped to its parent's interval, so self time is never
// negative.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(spans, kids[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the given spans' intervals
// within [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	sorted := append([]int(nil), ids...)
	sort.Slice(sorted, func(a, b int) bool { return spans[sorted[a]].Start < spans[sorted[b]].Start })
	var total int64
	edge := lo // everything before edge is already counted
	for _, id := range sorted {
		s, e := spans[id].Start, spans[id].End
		if s < edge {
			s = edge
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// selfByName sums self time per span name (nanoseconds).
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// durations returns the durations of every span with the given name, in
// recording order, as float64 nanoseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}
