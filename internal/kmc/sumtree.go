// Package kmc implements the atomistic kinetic Monte Carlo engine of
// TensorKMC: the residence-time algorithm of Sec. 2.1 (Eqs. 1–3) over
// vacancy hop events, backed by the triple-encoding vacancy systems of
// Sec. 3.1, the vacancy-cache mechanism of Sec. 3.2, and the "tree
// strategy for propensity update" the scalability runs use (Sec. 4.4): a
// binary sum tree giving O(log n) propensity updates and event selection.
package kmc

import "fmt"

// SumTree is a fixed-capacity binary sum tree over non-negative weights.
// Leaf i holds the total hop propensity of vacancy slot i; internal nodes
// hold subtree sums. Selection walks from the root, preferring the left
// child, which makes tree selection equivalent to a cumulative linear
// scan in slot order — the property the Fig. 8 trajectory-equality
// validation relies on.
type SumTree struct {
	n      int // leaf capacity (power of two)
	weight []float64
}

// NewSumTree returns a tree with capacity for at least n leaves.
func NewSumTree(n int) *SumTree {
	if n <= 0 {
		panic(fmt.Sprintf("kmc: invalid sum tree size %d", n))
	}
	cap := 1
	for cap < n {
		cap *= 2
	}
	return &SumTree{n: cap, weight: make([]float64, 2*cap)}
}

// Update sets leaf i to w and fixes ancestor sums.
func (t *SumTree) Update(i int, w float64) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("kmc: sum tree index %d out of range", i))
	}
	if w < 0 {
		panic("kmc: negative propensity")
	}
	node := t.n + i
	t.weight[node] = w
	for node > 1 {
		node /= 2
		t.weight[node] = t.weight[2*node] + t.weight[2*node+1]
	}
}

// Total returns the sum of all leaf weights.
func (t *SumTree) Total() float64 { return t.weight[1] }

// Select returns the leaf index whose cumulative-weight interval contains
// target ∈ [0, Total()). It returns -1 if the total weight is zero.
func (t *SumTree) Select(target float64) int {
	if t.Total() <= 0 || target < 0 {
		return -1
	}
	if target >= t.Total() {
		// Floating-point slack at the top: clamp into the last
		// positive-weight leaf.
		target = t.Total() * (1 - 1e-15)
	}
	node := 1
	for node < t.n {
		left := t.weight[2*node]
		if target < left {
			node = 2 * node
		} else {
			target -= left
			node = 2*node + 1
		}
	}
	return node - t.n
}
