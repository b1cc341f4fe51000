package telemetry

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// ContextSize is the wire footprint of a Context: two little-endian
// uint64s (trace ID, span ID).
const ContextSize = 16

// SpanEventType is the journal event type under which spans are
// recorded.
const SpanEventType = "span"

// Context is the propagated trace context: which trace an operation
// belongs to (Trace) and which span it should nest under (Span). A zero
// Trace is the invalid context — tracing off. Span may be zero in a
// root context (a trace with no spans yet). It is minted per run (or
// taken from a control-plane job record), carried across process
// boundaries in the evalserve wire protocol's eval frames, and handed
// to Phase.StartUnder so the span it opens journals itself.
//
// Minting only reads the wall clock and a process-local counter; it
// never touches an RNG stream or simulation state, which keeps traced
// and untraced runs bit-identical.
type Context struct {
	Trace uint64 // the trace's ID; zero means no trace
	Span  uint64 // the span to nest under; zero at a trace's root
}

// Valid reports whether the context belongs to a live trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// TraceID renders the trace ID as the canonical 16-hex-char string
// used in journals, job records and `tkmc-analyze trace`.
func (c Context) TraceID() string { return ID(c.Trace) }

// ID renders one trace or span ID in canonical form.
func ID(v uint64) string {
	// Hand-rolled hex: ID runs three times per recorded span event, and
	// fmt.Sprintf("%016x") costs ~10x this loop.
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ParseID parses a canonical 16-hex-char ID (shorter forms are
// accepted; the value just has to be a non-zero hex uint64).
func ParseID(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: invalid ID %q: %w", s, err)
	}
	if v == 0 {
		return 0, fmt.Errorf("trace: zero ID")
	}
	return v, nil
}

// Encode writes the context into b (at least ContextSize bytes),
// little-endian trace then span.
func (c Context) Encode(b []byte) {
	putU64(b[0:8], c.Trace)
	putU64(b[8:16], c.Span)
}

// DecodeContext reads a context from b (at least ContextSize bytes).
func DecodeContext(b []byte) Context {
	return Context{Trace: getU64(b[0:8]), Span: getU64(b[8:16])}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// mintState seeds ID minting once per process from the wall clock and
// PID, then advances by a large odd constant per mint — every ID in a
// process is distinct, and two processes starting in the same
// nanosecond still diverge on PID. IDs are identifiers, not randomness:
// nothing simulates with them, so minting never touches an RNG stream.
var mintState atomic.Uint64

func init() {
	mintState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<48)
}

// mint returns a fresh non-zero ID (splitmix64 finaliser over a
// Weyl-sequence counter).
func mint() uint64 {
	for {
		x := mintState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// NewTrace mints a fresh trace and returns its root context (Span
// zero): the parent for the trace's first span.
func NewTrace() Context { return Context{Trace: mint()} }
