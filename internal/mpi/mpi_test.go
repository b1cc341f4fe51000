package mpi

import (
	"runtime"
	"testing"
	"time"

	"tensorkmc/internal/rng"
)

func TestAllGather(t *testing.T) {
	RunWorld(NewWorld(4), func(c *Comm) {
		got, err := c.AllGather(c.Rank()*10, 0)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		for r, v := range got {
			if v.(int) != r*10 {
				t.Errorf("AllGather[%d] = %v, want %d", r, v, r*10)
			}
		}
	})
}

func TestAllGatherRepeated(t *testing.T) {
	RunWorld(NewWorld(3), func(c *Comm) {
		for round := 0; round < 10; round++ {
			got, err := c.AllGather(c.Rank()+round*100, 0)
			if err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
			for r, v := range got {
				if v.(int) != r+round*100 {
					t.Errorf("round %d: AllGather[%d] = %v", round, r, v)
				}
			}
		}
	})
}

// gathered reports whether got is exactly payload(r, g) for every rank r
// of an n-rank world.
func gathered(got []any, n, g int, payload func(r, g int) int) bool {
	if len(got) != n {
		return false
	}
	for r, v := range got {
		if x, ok := v.(int); !ok || x != payload(r, g) {
			return false
		}
	}
	return true
}

// TestAllGatherGenerations drives 2,000 back-to-back gathers on worlds
// of 1, 2, 3 and 8 ranks. Before every gather each rank yields a seeded
// random number of times, so the arrival order changes from gather to
// gather and a fast rank runs into the next generation while its peers
// still read the last one. Every rank's result for gather g must be
// gather g's payloads in rank order. Then one rank arrives last on
// purpose, once all its peers wait, and every rank must complete inside
// the deadline.
func TestAllGatherGenerations(t *testing.T) {
	const gathers = 2000
	payload := func(r, g int) int { return r<<16 | g }
	for _, n := range []int{1, 2, 3, 8} {
		w := NewWorld(n)
		RunWorld(w, func(c *Comm) {
			jitter := rng.New(uint64(n)<<8 | uint64(c.Rank()))
			for g := 0; g < gathers; g++ {
				for k := jitter.Intn(4); k > 0; k-- {
					runtime.Gosched()
				}
				got, err := c.AllGather(payload(c.Rank(), g), time.Minute)
				if err != nil {
					t.Errorf("%d ranks: rank %d gather %d: %v", n, c.Rank(), g, err)
					return
				}
				if !gathered(got, n, g, payload) {
					t.Errorf("%d ranks: rank %d gather %d got %v", n, c.Rank(), g, got)
					return
				}
			}
		})
	}

	const n = 3
	w := NewWorld(n)
	RunWorld(w, func(c *Comm) {
		if c.Rank() == n-1 {
			for {
				w.mu.Lock()
				waiting := w.gen.arrived
				w.mu.Unlock()
				if waiting == n-1 {
					break
				}
				runtime.Gosched()
			}
		}
		got, err := c.AllGather(payload(c.Rank(), 0), time.Minute)
		if err != nil || !gathered(got, n, 0, payload) {
			t.Errorf("late arrival: rank %d got %v, %v", c.Rank(), got, err)
		}
	})
	if err := w.Err(); err != nil {
		t.Fatalf("late arrival inside the deadline broke the world: %v", err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run swallowed a rank panic")
		}
	}()
	RunWorld(NewWorld(1), func(c *Comm) { panic("boom") })
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}
