// Package cluster analyses Cu precipitation in a lattice box: connected
// components of Cu atoms under nearest-neighbour adjacency, their size
// distribution, the isolated-atom count tracked by the paper's Fig. 8
// validation, and the cluster number density reported in the Fig. 14
// application study.
package cluster

import (
	"fmt"
	"math"

	"tensorkmc/internal/lattice"
)

// unionFind is a weighted quick-union with path halving over dense ids.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(i int32) int32 {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]] // path halving
		i = u.parent[i]
	}
	return i
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// Analysis summarises the Cu clusters of one snapshot.
type Analysis struct {
	// NumCu is the total Cu atom count; Isolated the number of Cu atoms
	// with no Cu neighbour within the adjacency shells (clusters of
	// size 1 — C₁ in Fig. 14's colouring).
	NumCu    int
	Isolated int
	// Clusters counts connected components of size ≥ 2; MaxSize is the
	// largest component (C_max).
	Clusters int
	MaxSize  int
	// Histogram maps cluster size → count (size 1 included).
	Histogram map[int]int
	// NumberDensity is clusters-of-size-≥2 per cubic metre.
	NumberDensity float64
	// MeanRadius is the mean radius of gyration of clusters of size ≥ 2
	// in Å — the physical precipitate size the count-based histogram
	// does not show.
	MeanRadius float64
}

// Analyze computes the Cu cluster statistics of a box. shells selects the
// adjacency criterion: 1 links first nearest neighbours only, 2 links
// first and second nearest neighbours (the usual choice for bcc Fe–Cu
// precipitate counting, since 1NN and 2NN distances differ by only 15%).
func Analyze(box *lattice.Box, shells int) Analysis {
	if shells < 1 || shells > 2 {
		panic(fmt.Sprintf("cluster: unsupported shell count %d", shells))
	}
	var offsets []lattice.Vec
	offsets = append(offsets, lattice.NN1[:]...)
	if shells == 2 {
		offsets = append(offsets,
			lattice.Vec{X: 2}, lattice.Vec{X: -2},
			lattice.Vec{Y: 2}, lattice.Vec{Y: -2},
			lattice.Vec{Z: 2}, lattice.Vec{Z: -2})
	}

	// Dense re-indexing of Cu atoms.
	cuID := make(map[int]int32)
	var cuSites []lattice.Vec
	for i, n := 0, box.NumSites(); i < n; i++ {
		if box.GetIndex(i) == lattice.Cu {
			cuID[i] = int32(len(cuSites))
			cuSites = append(cuSites, box.SiteAt(i))
		}
	}
	u := newUnionFind(len(cuSites))
	for id, v := range cuSites {
		for _, off := range offsets {
			j := box.Index(v.Add(off))
			if other, ok := cuID[j]; ok {
				u.union(int32(id), other)
			}
		}
	}

	a := Analysis{NumCu: len(cuSites), Histogram: map[int]int{}}
	rootSize := map[int32]int{}
	for id := range cuSites {
		rootSize[u.find(int32(id))]++
	}
	for _, size := range rootSize {
		a.Histogram[size]++
		if size == 1 {
			a.Isolated++
		} else {
			a.Clusters++
			if size > a.MaxSize {
				a.MaxSize = size
			}
		}
	}
	if a.Clusters > 0 {
		a.MeanRadius = meanGyrationRadius(box, cuSites, u)
	}
	if a.MaxSize == 0 && a.Isolated > 0 {
		a.MaxSize = 1
	}
	a.NumberDensity = float64(a.Clusters) / box.Volume()
	return a
}

// IsolatedCu returns only the isolated-Cu count (the Fig. 8 observable),
// using 1NN+2NN adjacency.
func IsolatedCu(box *lattice.Box) int { return Analyze(box, 2).Isolated }

// meanGyrationRadius averages the radius of gyration over clusters of
// size ≥ 2. Cluster members are unwrapped relative to the member found
// first (minimum image per member against that anchor), which is exact
// for precipitates smaller than half the box.
func meanGyrationRadius(box *lattice.Box, cuSites []lattice.Vec, u *unionFind) float64 {
	type acc struct {
		anchor     lattice.Vec
		sx, sy, sz float64
		sq         float64
		n          int
	}
	period := [3]int{2 * box.Nx, 2 * box.Ny, 2 * box.Nz}
	wrap := func(x, p int) int {
		x %= p
		if x < -p/2 {
			x += p
		}
		if x >= p/2 {
			x -= p
		}
		return x
	}
	groups := map[int32]*acc{}
	for id, v := range cuSites {
		root := u.find(int32(id))
		g, ok := groups[root]
		if !ok {
			g = &acc{anchor: v}
			groups[root] = g
		}
		d := v.Sub(g.anchor)
		x := float64(wrap(d.X, period[0]))
		y := float64(wrap(d.Y, period[1]))
		z := float64(wrap(d.Z, period[2]))
		g.sx += x
		g.sy += y
		g.sz += z
		g.sq += float64(x*x) + float64(y*y) + float64(z*z)
		g.n++
	}
	var sum float64
	var count int
	halfUnit := box.A / 2
	for _, g := range groups {
		if g.n < 2 {
			continue
		}
		n := float64(g.n)
		// Rg² = <r²> − <r>² in half-units², converted to Å.
		rg2 := g.sq/n - (float64(g.sx*g.sx)+float64(g.sy*g.sy)+float64(g.sz*g.sz))/(n*n)
		if rg2 < 0 {
			rg2 = 0
		}
		sum += float64(math.Sqrt(rg2) * halfUnit)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
