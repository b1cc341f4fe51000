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
	chaos := NewChaos(1)
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
	chaos := NewChaos(1)
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

// queued counts the messages left on the world's channels.
func queued(w *World) int64 {
	var n int64
	for _, row := range w.chans {
		for _, ch := range row {
			n += int64(len(ch))
		}
	}
	return n
}

// TestChaosDropsAndDuplicates runs one gather per world on a shared
// interposer and accounts, world by world, for every fault it reports:
// each payload either arrives (counted once) or is dropped, a gather
// fails exactly when something was dropped, and every second copy of a
// duplicated payload is discarded, so it is still on the wire when the
// gather is over.
func TestChaosDropsAndDuplicates(t *testing.T) {
	const n, worlds = 3, 16
	chaos := NewChaos(42).WithDrop(0.1).WithDuplicate(0.3)
	var dropped, duplicated int64
	for i := 0; i < worlds; i++ {
		before := chaos.Stats()
		w := NewWorld(n)
		w.SetChaos(chaos)
		reg := telemetry.NewRegistry()
		w.SetTelemetry(reg, nil)
		RunWorld(w, func(c *Comm) { _, _ = c.AllGather(c.Rank(), 50*time.Millisecond) })
		after := chaos.Stats()
		drops := after.Dropped - before.Dropped
		dups := after.Duplicated - before.Duplicated
		dropped += drops
		duplicated += dups

		var recvs int64
		for r := 0; r < n; r++ {
			_, rv, _ := fabricCounts(reg, r)
			recvs += rv
		}
		if recvs+drops != n*(n-1) {
			t.Errorf("world %d: %d received + %d dropped != %d sent", i, recvs, drops, n*(n-1))
		}
		if failed := w.Err() != nil; failed != (drops > 0) {
			t.Errorf("world %d: gather failed = %v with %d drops", i, failed, drops)
		}
		if left := queued(w); left != dups {
			t.Errorf("world %d: %d copies left on the wire, %d duplicated", i, left, dups)
		}
	}
	if dropped == 0 || duplicated == 0 {
		t.Fatalf("chaos injected %d drops and %d duplicates, want both", dropped, duplicated)
	}
}

// TestAllGatherDedupsDuplicates: with every message duplicated, repeated
// collectives must still deliver each rank's payload exactly once per
// round — the sequence-number dedup at the protocol layer.
func TestAllGatherDedupsDuplicates(t *testing.T) {
	w := NewWorld(3)
	chaos := NewChaos(11).WithDuplicate(1.0)
	w.SetChaos(chaos)
	RunWorld(w, func(c *Comm) {
		for round := 0; round < 20; round++ {
			got, err := c.AllGather(c.Rank()*100+round, time.Second)
			if err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
			for r, v := range got {
				if v.(int) != r*100+round {
					t.Errorf("rank %d round %d: got[%d] = %v", c.Rank(), round, r, v)
					return
				}
			}
		}
	})
	if chaos.Stats().Duplicated == 0 {
		t.Fatal("no duplicates were injected")
	}
}

// TestAllGatherDelayReordered: delayed (FIFO-violating) messages must
// be reordered back into the collectives they belong to, keeping every
// round correct as long as the delay stays under the timeout.
func TestAllGatherDelayReordered(t *testing.T) {
	w := NewWorld(3)
	chaos := NewChaos(13).WithDelay(0.5, 10*time.Millisecond)
	w.SetChaos(chaos)
	RunWorld(w, func(c *Comm) {
		for round := 0; round < 15; round++ {
			got, err := c.AllGather([2]int{c.Rank(), round}, 5*time.Second)
			if err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
			for r, v := range got {
				if v.([2]int) != [2]int{r, round} {
					t.Errorf("rank %d round %d: got[%d] = %v", c.Rank(), round, r, v)
					return
				}
			}
		}
	})
	if chaos.Stats().Delayed == 0 {
		t.Fatal("no delays were injected")
	}
}

// dupDelayRounds drives 25 gathers with deadline d on four ranks under
// simultaneous duplication and delay, and requires every round to stay
// correct on every rank.
func dupDelayRounds(t *testing.T, seed uint64, d time.Duration) {
	t.Helper()
	w := NewWorld(4)
	chaos := NewChaos(seed).WithDuplicate(0.4).WithDelay(0.3, 5*time.Millisecond)
	w.SetChaos(chaos)
	RunWorld(w, func(c *Comm) {
		for round := 0; round < 25; round++ {
			got, err := c.AllGather(c.Rank()<<16|round, d)
			if err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
			for r, v := range got {
				if v.(int) != r<<16|round {
					t.Errorf("rank %d round %d: got[%d] = %v", c.Rank(), round, r, v)
					return
				}
			}
		}
	})
	st := chaos.Stats()
	if st.Duplicated == 0 || st.Delayed == 0 {
		t.Fatalf("combo injected nothing: %+v", st)
	}
}

// TestAllGatherDupDelayCombo runs the duplication-plus-delay rounds with
// a deadline.
func TestAllGatherDupDelayCombo(t *testing.T) { dupDelayRounds(t, 17, 5*time.Second) }

// TestAllGatherBlockingUnderDupDelay runs the same rounds on the
// blocking path (d = 0), the one every sweep without an exchange
// timeout takes.
func TestAllGatherBlockingUnderDupDelay(t *testing.T) { dupDelayRounds(t, 37, 0) }

// TestAllGatherDropBreaksWorld: a dropped collective payload must
// surface within the timeout as a StallError naming the silent rank,
// and latch the world broken.
func TestAllGatherDropBreaksWorld(t *testing.T) {
	w := NewWorld(3)
	w.SetChaos(NewChaos(19).WithDrop(1.0))
	var stalls int32
	RunWorld(w, func(c *Comm) {
		_, err := c.AllGather(c.Rank(), 50*time.Millisecond)
		if err == nil {
			t.Errorf("rank %d: gather succeeded with all payloads dropped", c.Rank())
			return
		}
		var stall *StallError
		if !errors.As(err, &stall) {
			t.Errorf("rank %d: error is not a StallError: %v", c.Rank(), err)
			return
		}
		if len(stall.Missing) == 0 {
			t.Errorf("rank %d: StallError names no missing ranks", c.Rank())
		}
		atomic.AddInt32(&stalls, 1)
	})
	if stalls != 3 {
		t.Fatalf("%d ranks saw the stall, want 3", stalls)
	}
	if w.Err() == nil {
		t.Fatal("world not latched broken after dropped gather")
	}
}

// TestAllGatherDelayBeyondTimeout: a delay longer than the collective's
// timeout is indistinguishable from a drop and must produce the same
// typed diagnostic.
func TestAllGatherDelayBeyondTimeout(t *testing.T) {
	w := NewWorld(2)
	w.SetChaos(NewChaos(23).WithDelay(1.0, 500*time.Millisecond))
	RunWorld(w, func(c *Comm) {
		_, err := c.AllGather(c.Rank(), 40*time.Millisecond)
		if err == nil {
			t.Errorf("rank %d: gather beat a 500ms delay with a 40ms timeout", c.Rank())
			return
		}
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("rank %d: error does not unwrap to ErrTimeout: %v", c.Rank(), err)
		}
	})
}

// TestChaosBudgetExhausts: a budgeted interposer must stop injecting
// after its allotment. Two worlds share one interposer, the supervisor's
// rebuild shape: the first world's gather loses both payloads and
// fails, the rebuilt world's gather succeeds.
func TestChaosBudgetExhausts(t *testing.T) {
	chaos := NewChaos(29).WithDrop(1.0).WithBudget(2)
	gather := func() *World {
		w := NewWorld(2)
		w.SetChaos(chaos)
		RunWorld(w, func(c *Comm) { _, _ = c.AllGather(c.Rank(), 50*time.Millisecond) })
		return w
	}
	if err := gather().Err(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first world: want a gather timeout, got %v", err)
	}
	if err := gather().Err(); err != nil {
		t.Fatalf("rebuilt world failed after the budget ran out: %v", err)
	}
	if st := chaos.Stats(); st.Dropped != 2 {
		t.Fatalf("budget of 2 dropped %d messages", st.Dropped)
	}
}

// TestFabricCounters pins the per-rank fabric counters: every payload
// a rank puts on the wire is accepted exactly once by its peer, also
// when delay reorders it into the stash, and a stalled rank costs each
// waiting peer one timeout and the journal one mpi-stall event.
func TestFabricCounters(t *testing.T) {
	const n, rounds = 3, 30
	balanced := func(name string, chaos *Chaos) {
		w := NewWorld(n)
		if chaos != nil {
			w.SetChaos(chaos)
		}
		reg := telemetry.NewRegistry()
		w.SetTelemetry(reg, nil)
		RunWorld(w, func(c *Comm) {
			for round := 0; round < rounds; round++ {
				if _, err := c.AllGather(round, 5*time.Second); err != nil {
					t.Errorf("%s: rank %d round %d: %v", name, c.Rank(), round, err)
					return
				}
			}
		})
		for r := 0; r < n; r++ {
			sends, recvs, timeouts := fabricCounts(reg, r)
			if want := int64((n - 1) * rounds); sends != want || recvs != want || timeouts != 0 {
				t.Errorf("%s: rank %d sends/recvs/timeouts = %d/%d/%d, want %d/%d/0",
					name, r, sends, recvs, timeouts, want, want)
			}
		}
	}
	balanced("clean", nil)
	delayed := NewChaos(3).WithDelay(0.5, 10*time.Millisecond)
	balanced("delayed", delayed)
	if delayed.Stats().Delayed == 0 {
		t.Fatal("no delays were injected")
	}

	w := NewWorld(n)
	chaos := NewChaos(5)
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
