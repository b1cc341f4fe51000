package mpi

import (
	"sync"
	"time"

	"tensorkmc/internal/rng"
)

// Chaos is a fault interposer for a World: under test control it drops,
// duplicates and delays the messages a gather sends and stalls whole ranks,
// reproducing in-process the failure modes a 27.5M-core fabric exhibits
// statistically. All decisions draw from a seeded stream, so a chaos
// schedule is reproducible.
//
// Install with World.SetChaos before the ranks start. The zero
// probabilities mean "never"; a stalled rank swallows every message it
// would send or receive and never enters another gather (peers detect
// it when AllGather's deadline expires).
type Chaos struct {
	mu      sync.Mutex
	rnd     *rng.Stream
	drop    float64
	dup     float64
	delayP  float64
	delay   time.Duration
	budget  int // remaining message faults to inject; -1 = unlimited
	stalled map[int]bool

	stats ChaosStats
}

// ChaosStats counts the faults actually injected.
type ChaosStats struct {
	Dropped    int64
	Duplicated int64
	Delayed    int64
}

// NewChaos returns an interposer whose fault schedule is driven by the
// given seed.
func NewChaos(seed uint64) *Chaos {
	return &Chaos{rnd: rng.New(seed), budget: -1, stalled: make(map[int]bool)}
}

// WithBudget bounds the total number of message faults (drops,
// duplications, delays) the interposer will inject before going quiet,
// modelling a transient network glitch rather than a permanently lossy
// fabric — the shape recovery tests need to prove a supervised run
// eventually converges. Negative means unlimited (the default). Rank
// stalls are a state, not a message fault, and are not budgeted.
func (c *Chaos) WithBudget(n int) *Chaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
	return c
}

// WithDrop sets the per-message drop probability and returns c.
func (c *Chaos) WithDrop(p float64) *Chaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop = p
	return c
}

// WithDuplicate sets the per-message duplication probability and returns c.
func (c *Chaos) WithDuplicate(p float64) *Chaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dup = p
	return c
}

// WithDelay makes each message late by d with probability p and returns c.
// Delayed messages are re-delivered asynchronously, so FIFO ordering
// between a rank pair is deliberately violated.
func (c *Chaos) WithDelay(p float64, d time.Duration) *Chaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delayP, c.delay = p, d
	return c
}

// StallRank marks a rank dead: its messages vanish and it never enters
// another gather.
func (c *Chaos) StallRank(r int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stalled[r] = true
}

// Stalled reports whether a rank is currently marked dead.
func (c *Chaos) Stalled(r int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stalled[r]
}

// Revive clears a rank's dead mark — the in-process analogue of the
// scheduler allocating a replacement node, which a supervisor's
// teardown-and-rebuild then folds back into the world.
func (c *Chaos) Revive(r int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.stalled, r)
}

// Stats returns the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// onSend rolls the fault dice for one message.
func (c *Chaos) onSend(from, to int) (drop, dup bool, delay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stalled[from] || c.stalled[to] {
		c.stats.Dropped++
		return true, false, 0
	}
	if c.budget == 0 {
		return false, false, 0
	}
	if c.drop > 0 && c.rnd.Float64() < c.drop {
		c.stats.Dropped++
		c.spendBudget()
		return true, false, 0
	}
	if c.dup > 0 && c.rnd.Float64() < c.dup {
		c.stats.Duplicated++
		c.spendBudget()
		dup = true
	}
	if c.delayP > 0 && c.rnd.Float64() < c.delayP {
		c.stats.Delayed++
		c.spendBudget()
		delay = c.delay
	}
	return false, dup, delay
}

// spendBudget consumes one unit of the fault budget (mu held).
func (c *Chaos) spendBudget() {
	if c.budget > 0 {
		c.budget--
	}
}
