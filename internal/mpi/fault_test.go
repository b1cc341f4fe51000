package mpi

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tensorkmc/internal/telemetry"
)

// TestBarrierTimeoutNamesStalledRank is the core deadlock diagnostic:
// one rank never enters the gather, and every rank, the stalled one
// included, must fail with a StallError naming it instead of hanging.
func TestBarrierTimeoutNamesStalledRank(t *testing.T) {
	w := NewWorld(4)
	chaos := NewChaos()
	chaos.StallRank(2)
	w.SetChaos(chaos)
	var failures int32
	RunWorld(w, func(c *Comm) {
		_, err := c.AllGather(c.Rank(), 50*time.Millisecond)
		if err == nil {
			t.Errorf("rank %d: gather succeeded despite stalled rank", c.Rank())
			return
		}
		atomic.AddInt32(&failures, 1)
		var stall *StallError
		if !errors.As(err, &stall) {
			t.Errorf("rank %d: error is not a StallError: %v", c.Rank(), err)
			return
		}
		if len(stall.Missing) != 1 || stall.Missing[0] != 2 {
			t.Errorf("rank %d: missing = %v, want [2]", c.Rank(), stall.Missing)
		}
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("StallError does not unwrap to ErrTimeout")
		}
	})
	if failures != 4 {
		t.Fatalf("%d ranks saw the stall, want all 4 (including the stalled one)", failures)
	}
	if w.Err() == nil {
		t.Fatal("world not latched broken after gather timeout")
	}
}

func TestBrokenWorldFailsFast(t *testing.T) {
	w := NewWorld(2)
	chaos := NewChaos()
	chaos.StallRank(1)
	w.SetChaos(chaos)
	RunWorld(w, func(c *Comm) {
		_, _ = c.AllGather(c.Rank(), 20*time.Millisecond)
		// Any later collective must fail immediately, not hang for d.
		start := time.Now()
		if _, err := c.AllGather(c.Rank(), time.Minute); err == nil {
			t.Errorf("rank %d: collective succeeded on a broken world", c.Rank())
		}
		if time.Since(start) > 5*time.Second {
			t.Errorf("rank %d: broken world did not fail fast", c.Rank())
		}
	})
}

// TestAbortReleasesWaitingRanks: a rank that aborts instead of entering
// a gather releases the peers waiting in it with no deadline, with its
// own error, and every later collective fails with that error too. The
// journal records the break as one mpi-abort event, not as a stall.
func TestAbortReleasesWaitingRanks(t *testing.T) {
	w := NewWorld(3)
	journal := telemetry.NewJournal(0)
	w.SetTelemetry(nil, journal)
	cause := errors.New("rank 2 cannot go on")
	RunWorld(w, func(c *Comm) {
		if c.Rank() == 2 {
			w.Abort(cause)
			return
		}
		if _, err := c.AllGather(c.Rank(), 0); !errors.Is(err, cause) {
			t.Errorf("rank %d: gather returned %v, want the abort's error", c.Rank(), err)
		}
		if _, err := c.AllGather(c.Rank(), 0); !errors.Is(err, cause) {
			t.Errorf("rank %d: later gather returned %v, want the abort's error", c.Rank(), err)
		}
	})
	if !errors.Is(w.Err(), cause) {
		t.Fatalf("world latched %v, want the abort's error", w.Err())
	}
	counts := map[string]int{}
	for _, e := range journal.Events() {
		counts[e.Type]++
	}
	if counts["mpi-abort"] != 1 || counts["mpi-stall"] != 0 {
		t.Fatalf("journal holds %d mpi-abort and %d mpi-stall events, want 1 and 0",
			counts["mpi-abort"], counts["mpi-stall"])
	}
}

func TestAllGatherTimeoutHealthyWorld(t *testing.T) {
	RunWorld(NewWorld(3), func(c *Comm) {
		got, err := c.AllGather(c.Rank()*7, time.Second)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		for r, v := range got {
			if v.(int) != r*7 {
				t.Errorf("AllGather[%d] = %v", r, v)
			}
		}
	})
}

// fabricCounts reads rank r's tkmc_mpi_{sends,recvs,timeouts}_total.
func fabricCounts(reg *telemetry.Registry, r int) (sends, recvs, timeouts int64) {
	label := strconv.Itoa(r)
	return reg.Counter(telemetry.MetricMPISends, "", "rank", label).Value(),
		reg.Counter(telemetry.MetricMPIRecvs, "", "rank", label).Value(),
		reg.Counter(telemetry.MetricMPITimeouts, "", "rank", label).Value()
}

// TestAllGatherDelayBeyondTimeout: a rank that reaches the gather
// only after its peers' deadline has passed is indistinguishable from a
// dead one. Every rank, the late one included, fails with the typed
// diagnostic naming it.
func TestAllGatherDelayBeyondTimeout(t *testing.T) {
	w := NewWorld(2)
	RunWorld(w, func(c *Comm) {
		if c.Rank() == 1 {
			<-w.brokenCh
		}
		_, err := c.AllGather(c.Rank(), 40*time.Millisecond)
		var stall *StallError
		if !errors.As(err, &stall) || !errors.Is(err, ErrTimeout) {
			t.Errorf("rank %d: want a StallError unwrapping to ErrTimeout, got %v", c.Rank(), err)
			return
		}
		if len(stall.Missing) != 1 || stall.Missing[0] != 1 {
			t.Errorf("rank %d: missing = %v, want [1]", c.Rank(), stall.Missing)
		}
	})
}

// TestFabricCounters pins the per-rank fabric counters: every payload
// a rank hands to its peers is received exactly once by each of them,
// and a stalled rank costs each waiting peer one timeout and the
// journal one mpi-stall event.
func TestFabricCounters(t *testing.T) {
	const n, rounds = 3, 30
	w := NewWorld(n)
	reg := telemetry.NewRegistry()
	w.SetTelemetry(reg, nil)
	RunWorld(w, func(c *Comm) {
		for round := 0; round < rounds; round++ {
			if _, err := c.AllGather(round, 5*time.Second); err != nil {
				t.Errorf("clean: rank %d round %d: %v", c.Rank(), round, err)
				return
			}
		}
	})
	for r := 0; r < n; r++ {
		sends, recvs, timeouts := fabricCounts(reg, r)
		if want := int64((n - 1) * rounds); sends != want || recvs != want || timeouts != 0 {
			t.Errorf("clean: rank %d sends/recvs/timeouts = %d/%d/%d, want %d/%d/0",
				r, sends, recvs, timeouts, want, want)
		}
	}

	w = NewWorld(n)
	chaos := NewChaos()
	chaos.StallRank(2)
	w.SetChaos(chaos)
	reg, journal := telemetry.NewRegistry(), telemetry.NewJournal(0)
	w.SetTelemetry(reg, journal)
	RunWorld(w, func(c *Comm) { _, _ = c.AllGather(c.Rank(), 50*time.Millisecond) })
	for r := 0; r < n; r++ {
		want := int64(1)
		if r == 2 {
			want = 0
		}
		if _, _, timeouts := fabricCounts(reg, r); timeouts != want {
			t.Errorf("stalled: rank %d timeouts = %d, want %d", r, timeouts, want)
		}
	}
	var stalls int
	for _, e := range journal.Events() {
		if e.Type == "mpi-stall" {
			stalls++
		}
	}
	if stalls != 1 {
		t.Fatalf("journal holds %d mpi-stall events, want 1", stalls)
	}
}

// TestAbortCountsNoTimeout: ranks waiting in a gather with a long deadline
// when a peer aborts return the abort's error at once, and no rank counts
// a timeout — the journal holds one mpi-abort and no mpi-stall.
func TestAbortCountsNoTimeout(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	reg, journal := telemetry.NewRegistry(), telemetry.NewJournal(0)
	w.SetTelemetry(reg, journal)
	cause := errors.New("rank 2 cannot go on")
	RunWorld(w, func(c *Comm) {
		if c.Rank() == 2 {
			// Abort only once both peers wait in the gather.
			for {
				w.mu.Lock()
				waiting := w.gen.arrived
				w.mu.Unlock()
				if waiting == n-1 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			w.Abort(cause)
			return
		}
		start := time.Now()
		if _, err := c.AllGather(c.Rank(), time.Minute); !errors.Is(err, cause) {
			t.Errorf("rank %d: gather returned %v, want the abort's error", c.Rank(), err)
		}
		if time.Since(start) > 30*time.Second {
			t.Errorf("rank %d: the abort did not release the gather", c.Rank())
		}
	})
	for r := 0; r < n; r++ {
		if _, _, timeouts := fabricCounts(reg, r); timeouts != 0 {
			t.Errorf("rank %d counted %d timeouts, want 0", r, timeouts)
		}
	}
	counts := map[string]int{}
	for _, e := range journal.Events() {
		counts[e.Type]++
	}
	if counts["mpi-abort"] != 1 || counts["mpi-stall"] != 0 {
		t.Fatalf("journal holds %d mpi-abort and %d mpi-stall events, want 1 and 0",
			counts["mpi-abort"], counts["mpi-stall"])
	}
}
