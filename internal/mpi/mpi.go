// Package mpi is the message-passing fabric of the parallel AKMC
// engine: a fixed-size world of ranks (goroutines) joined by buffered
// channels, and the one collective the Shim–Amar sublattice sweep needs
// from it, AllGather — after each sector window every rank learns every
// other rank's site changes. It stands in for the paper's swmpi
// exchange, scaled to a single shared-memory process.
//
// At the paper's 27.5M-core scale, rank failure is routine rather than
// exceptional, so the fabric is fault-aware: a gather with a deadline
// that expires latches the whole world into a broken state whose error
// names the ranks whose payloads never arrived (the deadlock
// diagnostic), a rank that cannot go on breaks it with its own error
// (Abort), and a Chaos interposer injects message drops,
// duplications, delays and rank stalls under test control.
package mpi

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tensorkmc/internal/telemetry"
)

// ErrTimeout is wrapped by gather timeout errors.
var ErrTimeout = errors.New("timed out")

// StallError reports a collective that timed out: the ranks that never
// arrived (the stalled ones) and the ranks that were left waiting on
// them. It is the named-rank diagnostic a hung sweep aborts with.
type StallError struct {
	Timeout time.Duration
	Missing []int
	Waiting []int
}

func (e *StallError) Error() string {
	return fmt.Sprintf("mpi: collective %v after %v: ranks %v never arrived (ranks %v were waiting on them)",
		ErrTimeout, e.Timeout, e.Missing, e.Waiting)
}

// Unwrap lets errors.Is(err, ErrTimeout) match.
func (e *StallError) Unwrap() error { return ErrTimeout }

// message is one payload in flight, tagged with the sequence number of
// the gather it belongs to.
type message struct {
	seq  int
	data any
}

// World is a communicator over n ranks. Create it once, then hand each
// goroutine its Comm via Comm(rank).
type World struct {
	size  int
	chans [][]chan message // chans[from][to]

	mu       sync.Mutex
	broken   error         // latched on the first timed-out collective or Abort
	brokenCh chan struct{} // closed when broken latches (wakes every waiter)

	// Per-rank all-gather protocol state. Each slot is touched only by
	// its owning rank's goroutine, so no lock is needed beyond the seq
	// allocation under mu.
	gatherSeq     []int       // next collective sequence number, per rank
	gatherPending [][]message // stashed future-seq messages, [me*size+from]

	chaos *Chaos

	// Per-rank fabric counters (nil-safe no-ops when telemetry is off):
	// sends[r] counts messages rank r put on the wire, recvs[r] counts
	// payloads rank r accepted into a gather, timeouts[r] counts
	// deadline expiries rank r experienced while waiting on peers.
	sends, recvs, timeouts []*telemetry.Counter
	journal                *telemetry.Journal
}

// NewWorld creates a world of n ranks with buffered channels.
func NewWorld(n int) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", n))
	}
	w := &World{
		size:          n,
		brokenCh:      make(chan struct{}),
		gatherSeq:     make([]int, n),
		gatherPending: make([][]message, n*n),
	}
	w.chans = make([][]chan message, n)
	for i := range w.chans {
		w.chans[i] = make([]chan message, n)
		for j := range w.chans[i] {
			w.chans[i][j] = make(chan message, 64)
		}
	}
	return w
}

// breakWorldLocked latches the world broken with err (first error wins)
// and wakes everything waiting on it: stalled ranks and gather receives
// alike. The journal records the break as an event of type typ:
// mpi-stall for a timed-out collective, mpi-abort for a rank that gave
// up. Must be called with w.mu held. It returns the latched error.
func (w *World) breakWorldLocked(typ string, err error) error {
	if w.broken == nil {
		w.broken = err
		close(w.brokenCh)
		w.journal.Record(typ, "world broken: %v", err)
	}
	return w.broken
}

// Abort breaks the world with err on behalf of a rank that cannot go on:
// every rank waiting in a collective, and every later collective, fails
// with the latched error instead of waiting for the aborted rank's
// payload. The first break wins; the journal records it as mpi-abort.
func (w *World) Abort(err error) {
	w.mu.Lock()
	w.breakWorldLocked("mpi-abort", err)
	w.mu.Unlock()
}

// SetChaos installs a fault interposer (nil removes it). Install before
// the ranks start communicating.
func (w *World) SetChaos(c *Chaos) { w.chaos = c }

// SetTelemetry exports the fabric's per-rank send/recv/timeout counters
// into the registry (labelled rank="<r>") and records stall diagnoses
// in the flight-recorder journal. Install before the ranks start
// communicating; either argument may be nil.
func (w *World) SetTelemetry(reg *telemetry.Registry, j *telemetry.Journal) {
	w.journal = j
	if reg == nil {
		return
	}
	w.sends = make([]*telemetry.Counter, w.size)
	w.recvs = make([]*telemetry.Counter, w.size)
	w.timeouts = make([]*telemetry.Counter, w.size)
	for r := 0; r < w.size; r++ {
		label := strconv.Itoa(r)
		w.sends[r] = reg.Counter(telemetry.MetricMPISends,
			"Messages each rank put on the fabric.", "rank", label)
		w.recvs[r] = reg.Counter(telemetry.MetricMPIRecvs,
			"Messages each rank accepted from the fabric.", "rank", label)
		w.timeouts[r] = reg.Counter(telemetry.MetricMPITimeouts,
			"Deadline expiries each rank experienced waiting on peers.", "rank", label)
	}
}

// countSend / countRecv / countTimeout bump the per-rank fabric
// counters; all are no-ops until SetTelemetry installs them.
func (w *World) countSend(rank int) {
	if w.sends != nil {
		w.sends[rank].Inc()
	}
}

func (w *World) countRecv(rank int) {
	if w.recvs != nil {
		w.recvs[rank].Inc()
	}
}

func (w *World) countTimeout(rank int) {
	if w.timeouts != nil {
		w.timeouts[rank].Inc()
	}
}

// Err returns the latched fabric error, or nil while the world is
// healthy. Once a collective times out or a rank aborts, the world is
// permanently broken: every subsequent collective fails fast with the
// same error.
func (w *World) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Comm returns rank r's endpoint.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range", r))
	}
	return &Comm{world: w, rank: r}
}

// Comm is one rank's communicator endpoint.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// send puts one message on the from→to channel, through the Chaos
// interposer when one is installed. It blocks only if the destination
// queue is full (64 in-flight messages).
func (w *World) send(from, to int, m message) {
	copies := 1
	if ch := w.chaos; ch != nil {
		drop, dup, delay := ch.onSend(from, to)
		if drop {
			return // silently lost, like the network it simulates
		}
		if dup {
			copies = 2
		}
		if delay > 0 {
			dst := w.chans[from][to]
			n := copies
			time.AfterFunc(delay, func() {
				for i := 0; i < n; i++ {
					dst <- m
				}
			})
			w.countSend(from)
			return
		}
	}
	for i := 0; i < copies; i++ {
		w.chans[from][to] <- m
	}
	w.countSend(from)
}

// AllGather collects one value from every rank; the returned slice is
// indexed by rank and identical on all ranks. It must be called by all
// ranks collectively. It runs over the channel fabric — every rank
// sends its payload to every peer, tagged with a per-rank gather
// sequence number — so the Chaos interposer's message faults exercise
// it exactly as they would a real interconnect:
//
//   - duplicated messages are detected by their stale sequence number
//     and discarded, never delivered twice;
//   - delayed messages that overtake a later gather are stashed and
//     consumed by the gather they belong to, restoring order;
//   - dropped messages surface as a *StallError after d naming the
//     ranks whose payloads never arrived, which breaks the world so
//     every rank fails fast instead of hanging.
//
// A non-positive d blocks forever (modulo another rank breaking the
// world, by its own timeout or by Abort). Completion still synchronises
// the ranks: no rank returns before every rank has entered the gather
// and its payload arrived.
func (c *Comm) AllGather(v any, d time.Duration) ([]any, error) {
	w := c.world
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return nil, err
	}
	if ch := w.chaos; ch != nil && ch.Stalled(c.rank) {
		// A dead rank never participates; it unblocks only when a
		// surviving peer's timeout breaks the world (so tests terminate
		// instead of leaking the goroutine).
		w.mu.Unlock()
		<-w.brokenCh
		return nil, w.Err()
	}
	seq := w.gatherSeq[c.rank]
	w.gatherSeq[c.rank]++
	w.mu.Unlock()

	for to := 0; to < w.size; to++ {
		if to != c.rank {
			w.send(c.rank, to, message{seq: seq, data: v})
		}
	}

	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	out := make([]any, w.size)
	got := make([]bool, w.size)
	out[c.rank], got[c.rank] = v, true
	for from := 0; from < w.size; from++ {
		if got[from] {
			continue
		}
		if c.gatherFrom(from, seq, out, got, deadline) {
			continue
		}
		// Timed out waiting on `from`. Messages from later peers may
		// already be buffered; sweep them up non-blockingly so the
		// diagnostic names only the ranks that truly never delivered.
		for p := 0; p < w.size; p++ {
			if !got[p] {
				c.gatherSweep(p, seq, out, got)
			}
		}
		var missing []int
		for p, ok := range got {
			if !ok {
				missing = append(missing, p)
			}
		}
		if len(missing) == 0 {
			continue // the sweep found everything after all
		}
		w.countTimeout(c.rank)
		w.mu.Lock()
		err := w.breakWorldLocked("mpi-stall", &StallError{Timeout: d, Missing: missing, Waiting: []int{c.rank}})
		w.mu.Unlock()
		return nil, err
	}
	return out, nil
}

// gatherFrom blocks until peer `from`'s payload for gather `seq` is
// available (from the pending stash or the wire), recording it in
// out/got. It returns false on deadline expiry and propagates a broken
// world by reporting the peer as not delivered.
func (c *Comm) gatherFrom(from, seq int, out []any, got []bool, deadline time.Time) bool {
	w := c.world
	if c.gatherSweep(from, seq, out, got) {
		return true
	}
	src := w.chans[from][c.rank]
	for {
		var m message
		if deadline.IsZero() {
			select {
			case m = <-src:
			case <-w.brokenCh:
				return false
			}
		} else {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return false
			}
			timer := time.NewTimer(remaining)
			select {
			case m = <-src:
				timer.Stop()
			case <-w.brokenCh:
				timer.Stop()
				return false
			case <-timer.C:
				return false
			}
		}
		if c.gatherAccept(from, seq, m, out, got) {
			return true
		}
	}
}

// gatherAccept files one message from peer `from` during gather `seq`:
// the awaited payload completes the peer's slot and is the one place a
// receive is counted; stale sequences and second copies (duplicates or
// long-delayed stragglers) are discarded; and future sequences — a peer
// already in its next gather whose earlier message was delayed past
// ours — are stashed for the gather they belong to.
func (c *Comm) gatherAccept(from, seq int, m message, out []any, got []bool) bool {
	switch {
	case m.seq == seq && !got[from]:
		out[from], got[from] = m.data, true
		c.world.countRecv(c.rank)
		return true
	case m.seq <= seq:
		return false // stale duplicate or straggler: drop
	default:
		w := c.world
		slot := c.rank*w.size + from
		w.gatherPending[slot] = append(w.gatherPending[slot], m)
		return false
	}
}

// gatherSweep drains peer `from`'s stash and any buffered channel
// messages without blocking, filing each through gatherAccept. It
// reports whether the awaited payload was found.
func (c *Comm) gatherSweep(from, seq int, out []any, got []bool) bool {
	w := c.world
	slot := c.rank*w.size + from
	pending := w.gatherPending[slot]
	w.gatherPending[slot] = pending[:0]
	for _, m := range pending {
		c.gatherAccept(from, seq, m, out, got)
	}
	if got[from] {
		return true
	}
	for {
		select {
		case m := <-w.chans[from][c.rank]:
			if c.gatherAccept(from, seq, m, out, got) {
				return true
			}
		default:
			return false
		}
	}
}

// RunWorld launches fn on every rank of w and waits for all to finish.
// Panics in any rank are re-raised on the caller. The caller constructs
// the world, so chaos interposers and telemetry can be installed before
// the ranks start.
func RunWorld(w *World, fn func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make([]any, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
				}
			}()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	for r, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", r, p))
		}
	}
}
