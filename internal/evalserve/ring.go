package evalserve

import (
	"fmt"
	"sort"

	"tensorkmc/internal/encoding"
)

// Ring is a consistent-hash ring over serve-node addresses: the routing
// table of the distributed evaluation fleet. Each node contributes a
// fixed set of virtual points derived only from its address, so the
// mapping from a request's content-address hash to its owning node is a
// pure function of the node set — every client that knows the same
// addresses routes identically, with no coordination service. Two node
// sets that differ by one node disagree only on the keys that node owns,
// so redialling a fleet with one node more or less does not stampede
// every cache.
//
// A Ring is immutable after construction; a FleetClient builds one when
// it is dialled.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the 64-bit hash circle
// and the index (into nodes) of the owner.
type ringPoint struct {
	hash uint64
	node int
}

// DefaultVNodes is the virtual-point count per node when vnodes is zero:
// enough that the largest owner of a 3-node loopback ring holds ≈37 % of
// the key space in the median ring and under half in every one
// (TestRingBalance), cheap enough that ring construction is negligible.
const DefaultVNodes = 64

// NewRing builds a ring over the given node addresses with vnodes
// virtual points each (vnodes <= 0 takes DefaultVNodes), placed at
// encoding.KeyHash of the label "addr#v" — the hash keys are routed by,
// whose finaliser spreads labels that differ in one port digit over the
// whole circle. Duplicate addresses are collapsed; node order does not
// affect the mapping.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for i, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: encoding.KeyHash([]byte(fmt.Sprintf("%s#%d", n, v))), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		return p.node < q.node // total order: ties cannot flip with vnode count
	})
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Order appends to dst the indices of every distinct node in ring order
// starting at the successor of hash: dst[0] is the key's owner, the
// rest are its failover replicas in deterministic preference order. The
// returned slice aliases dst's backing array when capacity allows.
func (r *Ring) Order(hash uint64, dst []int) []int {
	dst = dst[:0]
	if len(r.points) == 0 {
		return dst
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	seen := 0
	for i := 0; i < len(r.points) && seen < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		dup := false
		for _, n := range dst {
			if n == p.node {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, p.node)
			seen++
		}
	}
	return dst
}

// Node returns the address at index i (as used by Order).
func (r *Ring) Node(i int) string { return r.nodes[i] }
