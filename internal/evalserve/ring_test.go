package evalserve

import (
	"fmt"
	"sort"
	"testing"

	"tensorkmc/internal/rng"
)

// TestRingDeterministic: the mapping must be a pure function of the
// node set — same members (in any order) ⇒ same owner and same failover
// order for every key.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"n1:1", "n2:2", "n3:3"}, 0)
	b := NewRing([]string{"n3:3", "n1:1", "n2:2", "n2:2"}, 0)
	r := rng.New(77)
	var oa, ob []int
	for i := 0; i < 2000; i++ {
		h := r.Uint64()
		oa = a.Order(h, oa)
		ob = b.Order(h, ob)
		if len(oa) != 3 || len(ob) != 3 {
			t.Fatalf("order lengths %d/%d, want 3", len(oa), len(ob))
		}
		for k := range oa {
			if a.Node(oa[k]) != b.Node(ob[k]) {
				t.Fatalf("key %#x: order diverges between equivalent rings", h)
			}
		}
	}
}

// TestRingBalance: ownership must be roughly even. Over 20,000 random
// keys on a four-node ring no node may own more than twice, or less than
// half, its fair share. On the addresses a fleet really has — loopback
// ports a digit or two apart — over 200 seeded 3-node rings the largest
// owner never holds half the key space and the smallest never a fifth
// (a third is fair; measured: largest 41.4 %, smallest 21.9 %). With the
// labels hashed by plain FNV-1a, which leaves "addr#1" and "addr#2"
// close on the circle, the median ring's largest owner held 52 % and the
// smallest of one ring 1.1 %.
func TestRingBalance(t *testing.T) {
	nodes := []string{"a:1", "b:2", "c:3", "d:4"}
	ring := NewRing(nodes, 0)
	counts := map[string]int{}
	r := rng.New(99)
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[ring.Owner(r.Uint64())]++
	}
	fair := keys / len(nodes)
	for _, n := range nodes {
		if c := counts[n]; c > 2*fair || c < fair/2 {
			t.Fatalf("node %s owns %d of %d keys (fair share %d)", n, c, keys, fair)
		}
	}

	for trial := 0; trial < 200; trial++ {
		seen := map[string]bool{}
		var addrs []string
		for len(addrs) < 3 {
			a := fmt.Sprintf("127.0.0.1:%d", 32768+r.Uint64()%28000)
			if !seen[a] {
				seen[a] = true
				addrs = append(addrs, a)
			}
		}
		ring := NewRing(addrs, 0)
		share := make([]float64, ring.Len())
		n := len(ring.points)
		for k, p := range ring.points {
			// A point owns the arc back to its predecessor (wrapping).
			share[p.node] += float64(p.hash-ring.points[(k+n-1)%n].hash) / (1 << 64)
		}
		for i, s := range share {
			if s >= 0.5 || s <= 0.2 {
				t.Fatalf("ring %v: %s owns %.1f %% of the key space", addrs, ring.Node(i), 100*s)
			}
		}
	}
}

// TestRingStabilityUnderLeave: removing one node must only remap keys
// that node owned — every other key keeps its owner (the consistent-hash
// property that makes join/leave cheap for the caches).
func TestRingStabilityUnderLeave(t *testing.T) {
	full := NewRing([]string{"a:1", "b:2", "c:3"}, 0)
	sans := NewRing([]string{"a:1", "c:3"}, 0)
	r := rng.New(41)
	remapped := 0
	const keys = 10000
	for i := 0; i < keys; i++ {
		h := r.Uint64()
		was, now := full.Owner(h), sans.Owner(h)
		if was == "b:2" {
			remapped++
			continue // b's keys must move somewhere
		}
		if was != now {
			t.Fatalf("key %#x moved %s -> %s though its owner stayed in the ring", h, was, now)
		}
	}
	if remapped == 0 {
		t.Fatal("removed node owned no keys — degenerate ring")
	}
}

// TestRingFailoverOrder: Order must start with the owner, list every
// distinct node exactly once, and agree with Owner.
func TestRingFailoverOrder(t *testing.T) {
	ring := NewRing([]string{"a:1", "b:2", "c:3"}, 0)
	r := rng.New(13)
	var order []int
	for i := 0; i < 1000; i++ {
		h := r.Uint64()
		order = ring.Order(h, order)
		if len(order) != ring.Len() {
			t.Fatalf("order has %d nodes, ring has %d", len(order), ring.Len())
		}
		if ring.Node(order[0]) != ring.Owner(h) {
			t.Fatalf("key %#x: Order[0]=%s but Owner=%s", h, ring.Node(order[0]), ring.Owner(h))
		}
		seen := map[int]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("key %#x: node %d listed twice", h, n)
			}
			seen[n] = true
		}
	}
}

// TestRingEmpty: the degenerate rings must not panic.
func TestRingEmpty(t *testing.T) {
	empty := NewRing(nil, 0)
	if got := empty.Order(42, nil); len(got) != 0 {
		t.Fatalf("empty ring returned order %v", got)
	}
	if owner := empty.Owner(42); owner != "" {
		t.Fatalf("empty ring owner %q", owner)
	}
	one := NewRing([]string{"solo:1"}, 4)
	if got := one.Order(42, nil); len(got) != 1 || one.Node(got[0]) != "solo:1" {
		t.Fatalf("single-node ring order %v", got)
	}
}

// Owner returns the address owning the given key hash ("" on an empty
// ring): the first node of Order, found by one search.
func (r *Ring) Owner(hash uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	return r.nodes[r.points[start%len(r.points)].node]
}
