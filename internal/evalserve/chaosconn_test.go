package evalserve

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tensorkmc/internal/rng"
)

// ConnChaos is a TCP-level fault interposer: the stream-transport
// mirror of internal/mpi.Chaos. A schedule wraps net.Conns (via Wrap or
// Dialer) and, under seeded dice, injects the failure modes a real
// fleet fabric exhibits — written bytes that never arrive (drop), late
// delivery (delay), a frame cut off mid-write (truncate), and a
// connection killed after a byte budget mid-frame (kill). All decisions
// draw from one seeded stream, so a chaos schedule is reproducible; an
// optional fault budget models a transient glitch rather than a
// permanently lossy path, which is the shape failover tests need to
// prove the fleet converges.
//
// Faults are injected on the write side: a dropped or truncated write
// is exactly what the peer's reader experiences as a lost or cut-short
// frame, and killing the conn releases both directions.
type ConnChaos struct {
	mu        sync.Mutex
	rnd       *rng.Stream
	dropP     float64
	delayP    float64
	delay     time.Duration
	truncP    float64
	killAfter int64 // total bytes across wrapped conns; <0 = never
	written   int64
	budget    int // remaining faults; -1 = unlimited
	stats     ConnChaosStats
}

// ConnChaosStats counts the faults actually injected.
type ConnChaosStats struct {
	Dropped   int64 // writes swallowed whole
	Delayed   int64 // writes delivered late
	Truncated int64 // writes cut short, conn then killed
	Killed    int64 // conns killed by the byte budget
}

// NewConnChaos returns an interposer whose fault schedule is driven by
// the given seed. Zero probabilities mean "never"; the kill budget
// starts disabled.
func NewConnChaos(seed uint64) *ConnChaos {
	return &ConnChaos{rnd: rng.New(seed), killAfter: -1, budget: -1}
}

// WithBudget bounds the total number of injected faults before the
// interposer goes quiet (negative = unlimited, the default).
func (c *ConnChaos) WithBudget(n int) *ConnChaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
	return c
}

// WithDrop sets the per-write drop probability and returns c. A dropped
// write reports success to the writer while the peer sees nothing — the
// classic lost-frame fault.
func (c *ConnChaos) WithDrop(p float64) *ConnChaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropP = p
	return c
}

// WithDelay makes each write late by d with probability p and returns c.
func (c *ConnChaos) WithDelay(p float64, d time.Duration) *ConnChaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delayP, c.delay = p, d
	return c
}

// WithTruncate sets the per-write truncation probability and returns c.
// A truncated write delivers a strict prefix of the buffer and then
// kills the connection — the peer reads a cut-short frame followed by
// EOF, the signature of a node dying mid-reply.
func (c *ConnChaos) WithTruncate(p float64) *ConnChaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.truncP = p
	return c
}

// WithKillAfter kills a wrapped connection once n total bytes have been
// written through the schedule — a deterministic mid-frame kill point
// for "node dies at byte N" tests. Negative disables (the default).
func (c *ConnChaos) WithKillAfter(n int64) *ConnChaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.killAfter = n
	return c
}

// Stats returns the injected-fault counters.
func (c *ConnChaos) Stats() ConnChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Wrap interposes the schedule on one connection.
func (c *ConnChaos) Wrap(conn net.Conn) net.Conn {
	return &chaosConn{Conn: conn, chaos: c}
}

// Dialer wraps a dial function so every connection it opens carries the
// schedule; nil wraps plain TCP. Plug the result into
// FleetOptions.Dialer.
func (c *ConnChaos) Dialer(dial func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return c.Wrap(conn), nil
	}
}

// connFault is one write's fault decision.
type connFault struct {
	drop     bool
	truncate int // bytes to deliver before killing; -1 = no truncation
	delay    time.Duration
	kill     bool
}

// onWrite rolls the dice for one write of n bytes.
func (c *ConnChaos) onWrite(n int) connFault {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := connFault{truncate: -1}
	if c.killAfter >= 0 && c.written+int64(n) > c.killAfter {
		f.truncate = int(c.killAfter - c.written)
		if f.truncate < 0 {
			f.truncate = 0
		}
		f.kill = true
		c.killAfter = -1 // one kill per schedule arming
		c.stats.Killed++
		c.written += int64(f.truncate)
		return f
	}
	c.written += int64(n)
	if c.budget == 0 {
		return f
	}
	if c.dropP > 0 && c.rnd.Float64() < c.dropP {
		c.stats.Dropped++
		c.spend()
		f.drop = true
		return f
	}
	if c.truncP > 0 && n > 1 && c.rnd.Float64() < c.truncP {
		c.stats.Truncated++
		c.spend()
		f.truncate = c.rnd.Intn(n)
		f.kill = true
		return f
	}
	if c.delayP > 0 && c.rnd.Float64() < c.delayP {
		c.stats.Delayed++
		c.spend()
		f.delay = c.delay
	}
	return f
}

// spend consumes one unit of the fault budget (mu held).
func (c *ConnChaos) spend() {
	if c.budget > 0 {
		c.budget--
	}
}

// chaosConn applies a ConnChaos schedule to one connection's writes.
type chaosConn struct {
	net.Conn
	chaos *ConnChaos
}

// Write implements net.Conn with the scheduled faults. Dropped writes
// report full success; truncated writes deliver a prefix and kill the
// connection.
func (cc *chaosConn) Write(p []byte) (int, error) {
	f := cc.chaos.onWrite(len(p))
	if f.drop {
		return len(p), nil
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.truncate >= 0 {
		if f.truncate > 0 {
			cc.Conn.Write(p[:f.truncate])
		}
		cc.Conn.Close()
		return f.truncate, net.ErrClosed
	}
	if f.kill {
		cc.Conn.Close()
		return 0, net.ErrClosed
	}
	return cc.Conn.Write(p)
}

// pipePair returns a chaos-wrapped writer end and the peer's reader end.
func pipePair(chaos *ConnChaos) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return chaos.Wrap(a), b
}

// readAll drains the reader until EOF/close with a deadline guard.
func readAll(t *testing.T, c net.Conn) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf bytes.Buffer
	_, err := io.Copy(&buf, c)
	if err != nil && err != io.EOF && err != io.ErrClosedPipe {
		// A killed peer surfaces as a closed pipe; anything else is real.
		if _, ok := err.(net.Error); !ok {
			t.Fatalf("read: %v", err)
		}
	}
	return buf.Bytes()
}

// TestConnChaosDrop: a dropped write must report success to the writer
// while the peer sees nothing.
func TestConnChaosDrop(t *testing.T) {
	chaos := NewConnChaos(7).WithDrop(1).WithBudget(1)
	w, r := pipePair(chaos)
	done := make(chan []byte, 1)
	go func() { done <- readAll(t, r) }()

	if n, err := w.Write([]byte("vanish")); n != 6 || err != nil {
		t.Fatalf("dropped write reported n=%d err=%v", n, err)
	}
	// Budget spent: the second write must pass through.
	if _, err := w.Write([]byte("arrive")); err != nil {
		t.Fatalf("post-budget write failed: %v", err)
	}
	w.Close()
	got := <-done
	if string(got) != "arrive" {
		t.Fatalf("peer read %q, want only the post-budget bytes", got)
	}
	st := chaos.Stats()
	if st.Dropped != 1 {
		t.Fatalf("stats %+v, want 1 drop", st)
	}
}

// TestConnChaosTruncate: a truncated write must deliver a strict prefix
// and then kill the connection — the peer reads a cut-short stream.
func TestConnChaosTruncate(t *testing.T) {
	chaos := NewConnChaos(3).WithTruncate(1).WithBudget(1)
	w, r := pipePair(chaos)
	done := make(chan []byte, 1)
	go func() { done <- readAll(t, r) }()

	payload := bytes.Repeat([]byte{0xab}, 64)
	n, err := w.Write(payload)
	if err == nil {
		t.Fatal("truncated write reported success")
	}
	if n >= len(payload) {
		t.Fatalf("truncation delivered %d of %d bytes", n, len(payload))
	}
	got := <-done
	if len(got) != n {
		t.Fatalf("peer read %d bytes, writer reported %d", len(got), n)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write on a killed conn succeeded")
	}
	if st := chaos.Stats(); st.Truncated != 1 {
		t.Fatalf("stats %+v, want 1 truncation", st)
	}
}

// TestConnChaosKillAfter: the byte budget must kill the connection
// mid-stream at a deterministic point.
func TestConnChaosKillAfter(t *testing.T) {
	chaos := NewConnChaos(5).WithKillAfter(10)
	w, r := pipePair(chaos)
	done := make(chan []byte, 1)
	go func() { done <- readAll(t, r) }()

	if _, err := w.Write(bytes.Repeat([]byte{1}, 8)); err != nil {
		t.Fatalf("pre-budget write: %v", err)
	}
	n, err := w.Write(bytes.Repeat([]byte{2}, 8)) // crosses the 10-byte line
	if err == nil {
		t.Fatal("write across the kill point reported success")
	}
	if n != 2 {
		t.Fatalf("kill point delivered %d extra bytes, want 2", n)
	}
	if got := <-done; len(got) != 10 {
		t.Fatalf("peer read %d bytes, want exactly 10", len(got))
	}
	if st := chaos.Stats(); st.Killed != 1 {
		t.Fatalf("stats %+v, want 1 kill", st)
	}
}

// TestConnChaosDeterministic: the same seed must produce the same fault
// schedule.
func TestConnChaosDeterministic(t *testing.T) {
	run := func() ConnChaosStats {
		chaos := NewConnChaos(11).WithDrop(0.3).WithTruncate(0.2)
		w, r := pipePair(chaos)
		go func() { readAll(t, r) }()
		for i := 0; i < 50; i++ {
			if _, err := w.Write([]byte("0123456789")); err != nil {
				break // killed by a truncation — part of the schedule
			}
		}
		w.Close()
		return chaos.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different schedules: %+v vs %+v", a, b)
	}
}
