package mpi

import "sync"

// Chaos is the dead-rank fixture for a World: under test control it
// holds chosen ranks dead, reproducing in-process the rank failures a
// 27.5M-core machine sees statistically. A stalled rank never puts a
// payload into another gather; its peers detect it when AllGather's
// deadline expires.
//
// Install with World.SetChaos before the ranks start.
type Chaos struct {
	mu      sync.Mutex
	stalled map[int]bool
}

// NewChaos returns a fixture with every rank alive.
func NewChaos() *Chaos {
	return &Chaos{stalled: make(map[int]bool)}
}

// StallRank marks a rank dead: it never enters another gather.
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
