// Package mpi is the rank fabric of the parallel AKMC engine: a
// fixed-size world of ranks (goroutines of one process) and the one
// collective the Shim–Amar sublattice sweep needs from it, AllGather —
// after each sector window every rank learns every other rank's site
// changes. It stands in for the paper's swmpi exchange, scaled to a
// single shared-memory process, where the collective is a rendezvous
// under one mutex rather than messages on a wire.
//
// At the paper's 27.5M-core scale, rank failure is routine rather than
// exceptional, so the fabric is fault-aware: a gather with a deadline
// that expires latches the whole world into a broken state whose error
// names the ranks that never arrived (the deadlock diagnostic), a rank
// that cannot go on breaks it with its own error (Abort), and a Chaos
// fixture holds chosen ranks dead under test control.
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

// gather is one generation of the all-gather rendezvous: each rank puts
// its payload into its own slot, and the last to arrive closes done,
// after which slots is the published, read-only result.
type gather struct {
	slots   []any
	put     []bool
	arrived int
	done    chan struct{}
}

func newGather(n int) *gather {
	return &gather{slots: make([]any, n), put: make([]bool, n), done: make(chan struct{})}
}

// World is a communicator over n ranks. Create it once, then hand each
// goroutine its Comm via Comm(rank).
type World struct {
	size int

	mu       sync.Mutex
	broken   error         // latched on the first timed-out collective or Abort
	aborted  bool          // broken was latched by Abort, not by a timeout
	brokenCh chan struct{} // closed when broken latches (wakes every waiter)
	gen      *gather       // the generation ranks are arriving at

	chaos *Chaos

	// Per-rank fabric counters (nil-safe no-ops when telemetry is off):
	// sends[r] counts the payloads rank r handed to its peers, recvs[r]
	// the peer payloads it took out of a completed gather, timeouts[r]
	// the gathers it left without a result because peers never arrived.
	sends, recvs, timeouts []*telemetry.Counter
	journal                *telemetry.Journal
}

// NewWorld creates a world of n ranks.
func NewWorld(n int) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", n))
	}
	return &World{size: n, brokenCh: make(chan struct{}), gen: newGather(n)}
}

// breakWorldLocked latches the world broken with err (first error wins)
// and wakes everything waiting on it: stalled ranks and gathering
// ranks alike. The journal records the break as an event of type typ:
// mpi-stall for a timed-out collective, mpi-abort for a rank that gave
// up. Must be called with w.mu held. It returns the latched error.
func (w *World) breakWorldLocked(typ string, err error) error {
	if w.broken == nil {
		w.broken, w.aborted = err, typ == "mpi-abort"
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

// SetChaos installs a dead-rank fixture (nil removes it). Install before
// the ranks start gathering.
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
			"Payloads each rank handed to its peers.", "rank", label)
		w.recvs[r] = reg.Counter(telemetry.MetricMPIRecvs,
			"Peer payloads each rank received from completed gathers.", "rank", label)
		w.timeouts[r] = reg.Counter(telemetry.MetricMPITimeouts,
			"Gathers each rank left without a result because peers never arrived.", "rank", label)
	}
}

// count adds n to rank's entry of one of the fabric counters; it is a
// no-op until SetTelemetry installs them.
func count(cs []*telemetry.Counter, rank int, n int64) {
	if cs != nil {
		cs[rank].Add(n)
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

// AllGather collects one value from every rank; the returned slice is
// indexed by rank and is the same slice on every rank, so callers must
// treat it as read-only. It must be called by all ranks collectively.
// It is a rendezvous in shared memory: each rank puts its payload into
// its own slot of the current generation, and the last to arrive
// publishes the slots and opens the next generation. The ranks are
// goroutines of one process, so no payload can be lost, duplicated or
// reordered on the way; the one fault left is a rank that never comes.
//
// A rank still waiting after d breaks the world with a *StallError
// naming the ranks that have not put a payload into this generation,
// so every rank fails fast instead of hanging. A non-positive d blocks
// forever (modulo another rank breaking the world, by its own timeout
// or by Abort). No rank returns a result before every rank has entered
// the gather.
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
	g := w.gen
	g.slots[c.rank], g.put[c.rank] = v, true
	g.arrived++
	peers := int64(w.size - 1)
	count(w.sends, c.rank, peers)
	if g.arrived == w.size {
		w.gen = newGather(w.size)
		close(g.done)
	}
	w.mu.Unlock()

	var expired <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-g.done:
	case <-w.brokenCh:
	case <-expired:
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if g.arrived == w.size {
		count(w.recvs, c.rank, peers)
		return g.slots, nil
	}
	if w.aborted {
		// A peer gave up: no deadline expired, so this is no timeout.
		return nil, w.broken
	}
	count(w.timeouts, c.rank, 1)
	var missing, waiting []int
	for r, ok := range g.put {
		if ok {
			waiting = append(waiting, r)
		} else {
			missing = append(missing, r)
		}
	}
	return nil, w.breakWorldLocked("mpi-stall", &StallError{Timeout: d, Missing: missing, Waiting: waiting})
}

// RunWorld launches fn on every rank of w and waits for all to finish.
// Panics in any rank are re-raised on the caller. The caller constructs
// the world, so the chaos fixture and telemetry can be installed before
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
