package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// DefaultJournalCapacity bounds the flight recorder when no explicit
// capacity is given: enough to hold the interesting tail of a run
// (every retry, restore and stall, plus sampled cache churn) without
// unbounded memory.
const DefaultJournalCapacity = 4096

// Event is one flight-recorder entry. Wall is the wall-clock capture
// time; Sim, when >= 0, is the simulated clock the subsystem reported.
//
// Trace, Span and Parent carry the distributed-trace context for span
// events (16-hex-char IDs; see Context and Span.EndMsg): Trace
// names the trace the event belongs to, Span this event's own span and
// Parent the span it nests under. Dur is a completed span's duration
// in seconds. All four stay empty on ordinary events, so journals
// without tracing serialise exactly as before.
type Event struct {
	// Seq numbers the journal's events from 1, Wall stamps the capture,
	// Type classifies the event and Msg describes it.
	Seq  uint64    `json:"seq"`
	Wall time.Time `json:"wall"`
	Type string    `json:"type"`
	Msg  string    `json:"msg,omitempty"`
	Sim  float64   `json:"sim,omitempty"` // the simulated clock; -1 when not reported
	// Trace, Span, Parent and Dur are the span fields described above.
	Trace  string  `json:"trace,omitempty"`
	Span   string  `json:"span,omitempty"`
	Parent string  `json:"parent,omitempty"`
	Dur    float64 `json:"dur,omitempty"`
}

// Journal is the flight recorder: a bounded ring of structured events
// that survives until flushed as JSONL on exit or crash. Recording is
// a mutex-guarded copy — cheap enough for failure-path events (retries,
// restores, stalls, audit violations) and for sampled high-frequency
// ones (cache evictions). When the ring is full the oldest events are
// dropped and counted, never the newest: a post-mortem wants the tail.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // resident events
	seq     uint64
	dropped uint64
	now     func() time.Time
}

// NewJournal builds a journal holding up to capacity events
// (DefaultJournalCapacity when <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]Event, capacity), now: time.Now}
}

// bindMetrics exposes the journal's own accounting in the registry.
func (j *Journal) bindMetrics(reg *Registry) {
	if j == nil || reg == nil {
		return
	}
	reg.CounterFunc(MetricEventsTotal, "Flight-recorder events recorded.", func() int64 {
		j.mu.Lock()
		defer j.mu.Unlock()
		return int64(j.seq)
	})
	reg.CounterFunc(MetricEventsDropped, "Flight-recorder events dropped by ring overflow.", func() int64 {
		j.mu.Lock()
		defer j.mu.Unlock()
		return int64(j.dropped)
	})
}

// Record appends one event of the given type with a formatted message.
// Nil journals drop it.
func (j *Journal) Record(typ, format string, args ...any) {
	j.record(Event{Type: typ, Msg: fmt.Sprintf(format, args...), Sim: -1})
}

// RecordSim is Record carrying the simulated clock alongside.
func (j *Journal) RecordSim(typ string, simTime float64, format string, args ...any) {
	j.record(Event{Type: typ, Msg: fmt.Sprintf(format, args...), Sim: simTime})
}

func (j *Journal) record(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	e.Wall = j.now()
	if j.n == len(j.buf) {
		j.buf[j.start] = e
		j.start = (j.start + 1) % len(j.buf)
		j.dropped++
		return
	}
	j.buf[(j.start+j.n)%len(j.buf)] = e
	j.n++
}

// Events returns the resident events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.buf[(j.start+i)%len(j.buf)]
	}
	return out
}

// Dropped returns how many events overflowed the ring.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// WriteJSONL flushes the resident events to w, one JSON object per
// line, oldest first. The ring is left intact so a later flush (e.g.
// the crash path after the exit path already ran) still works.
func (j *Journal) WriteJSONL(w io.Writer) error {
	for _, e := range j.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// FlushFile writes the journal as JSONL to path (truncating). Nil or
// empty journals still produce the file, so a crash leaves evidence
// that the recorder was live but empty rather than silently missing.
func (j *Journal) FlushFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := j.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
