package lattice

import "fmt"

// Domain is a rectangular sub-domain of a periodic global box, augmented
// with a ghost shell of configurable half-unit width. It implements the
// paper's Sec. 3.3 memory layout: the site array stores all local sites
// first and all ghost sites after, and the storage index of a site is
// computed directly from its coordinates (Eq. 4) — no POS_ID array exists.
//
// Coordinates handed to Domain methods are *global* half-unit coordinates
// relative to the global box origin; they must already be expressed in the
// periodic image that overlaps this domain's extended region (the caller —
// the sublattice layer — performs the wrap, because only it knows which
// image a remote update refers to).
type Domain struct {
	// Origin is the global coordinate of the domain's first local site
	// corner; Size is the local extent, Ghost the shell width, all in
	// half-units.
	Origin Vec
	Size   Vec
	Ghost  int

	// A is the lattice constant in Å.
	A float64

	nLocal int
	nAll   int
	types  []Species

	// Constants of Eq. (4), fixed by origin, size and ghost width and
	// computed once in NewDomain so Index is a handful of shifts and
	// multiplications. lo is the low corner of the extended region. A
	// site's parity is that of any of its coordinates: exRow[p] is the
	// number of parity-p sites in one x-row of the extended region and
	// exPlane[p] the number in one z-plane. The local region spans whole
	// unit cells from an even corner, so both parities have half.X sites
	// per local row, half.Y rows per local plane.
	lo      Vec
	exRow   [2]int
	exPlane [2]int
	half    Vec
}

// NewDomain builds a domain with the given origin, size and ghost width.
// Size components must be positive and even (whole unit cells) and the
// origin must be a site-parity-preserving corner (even coordinates), so
// that parity arithmetic matches the global lattice.
func NewDomain(origin, size Vec, ghost int, a float64) *Domain {
	if size.X <= 0 || size.Y <= 0 || size.Z <= 0 {
		panic(fmt.Sprintf("lattice: invalid domain size %v", size))
	}
	if size.X%2 != 0 || size.Y%2 != 0 || size.Z%2 != 0 {
		panic(fmt.Sprintf("lattice: domain size %v must be whole unit cells", size))
	}
	if origin.X%2 != 0 || origin.Y%2 != 0 || origin.Z%2 != 0 {
		panic(fmt.Sprintf("lattice: domain origin %v must be even", origin))
	}
	if ghost < 0 {
		panic("lattice: negative ghost width")
	}
	d := &Domain{Origin: origin, Size: size, Ghost: ghost, A: a}
	d.lo = origin.Sub(Vec{ghost, ghost, ghost})
	hi := origin.Add(size).Add(Vec{ghost, ghost, ghost})
	d.nLocal = sitesInCuboid(
		origin.X, origin.X+size.X,
		origin.Y, origin.Y+size.Y,
		origin.Z, origin.Z+size.Z)
	d.nAll = sitesInCuboid(d.lo.X, hi.X, d.lo.Y, hi.Y, d.lo.Z, hi.Z)
	d.types = make([]Species, d.nAll)
	d.half = Vec{size.X / 2, size.Y / 2, size.Z / 2}
	for p := 0; p < 2; p++ {
		d.exRow[p] = countParity(d.lo.X, hi.X, p)
		d.exPlane[p] = d.exRow[p] * countParity(d.lo.Y, hi.Y, p)
	}
	return d
}

// NumLocal returns the number of local (owned) sites N.
func (d *Domain) NumLocal() int { return d.nLocal }

// Contains reports whether v lies in the extended (local+ghost) region.
func (d *Domain) Contains(v Vec) bool {
	return v.X >= d.Origin.X-d.Ghost && v.X < d.Origin.X+d.Size.X+d.Ghost &&
		v.Y >= d.Origin.Y-d.Ghost && v.Y < d.Origin.Y+d.Size.Y+d.Ghost &&
		v.Z >= d.Origin.Z-d.Ghost && v.Z < d.Origin.Z+d.Size.Z+d.Ghost
}

// IsLocal reports whether v is an owned (non-ghost) site of this domain.
func (d *Domain) IsLocal(v Vec) bool {
	return v.X >= d.Origin.X && v.X < d.Origin.X+d.Size.X &&
		v.Y >= d.Origin.Y && v.Y < d.Origin.Y+d.Size.Y &&
		v.Z >= d.Origin.Z && v.Z < d.Origin.Z+d.Size.Z
}

// countParity returns the number of integers n in [lo, hi) with
// n ≡ p (mod 2). Empty or inverted ranges yield zero.
func countParity(lo, hi, p int) int {
	if hi <= lo {
		return 0
	}
	first := lo
	if mod2(first) != p {
		first++
	}
	if first >= hi {
		return 0
	}
	return (hi-first-1)/2 + 1
}

func mod2(x int) int {
	m := x % 2
	if m < 0 {
		m += 2
	}
	return m
}

// sitesInCuboid counts valid bcc sites (x ≡ y ≡ z mod 2) in the half-open
// cuboid [xlo,xhi)×[ylo,yhi)×[zlo,zhi).
func sitesInCuboid(xlo, xhi, ylo, yhi, zlo, zhi int) int {
	total := 0
	for p := 0; p < 2; p++ {
		total += countParity(xlo, xhi, p) * countParity(ylo, yhi, p) * countParity(zlo, zhi, p)
	}
	return total
}

// clamp limits n to [0, hi].
func clamp(n, hi int) int { return min(max(n, 0), hi) }

// Index returns the storage index of site v per the paper's Eq. (4):
// local sites occupy [0, NumLocal) in raster order (z-major, then y,
// then x, valid sites only — the "local ID ... by traversing the cell" of
// Sec. 3.3), and ghost sites follow them in the same order. It panics if
// v is outside the extended region or not a valid site.
func (d *Domain) Index(v Vec) int {
	if !v.IsSite() {
		panic(fmt.Sprintf("lattice: %v is not a bcc site", v))
	}
	if !d.Contains(v) {
		panic(fmt.Sprintf("lattice: %v outside domain extended region", v))
	}
	// Local sites that precede v in the raster: whole local planes below
	// v.Z, whole local rows below v.Y in v's plane, and the sites of v's
	// own row left of it. Same-parity coordinates are two apart, hence
	// the shifts; the clamps cover v lying before or beyond the local
	// range on an axis.
	l := v.Sub(d.Origin)
	nloc := clamp(l.Z, d.Size.Z) * d.half.Y * d.half.X
	if uint(l.Z) < uint(d.Size.Z) {
		nloc += clamp(l.Y>>1, d.half.Y) * d.half.X
		if uint(l.Y) < uint(d.Size.Y) {
			if uint(l.X) < uint(d.Size.X) {
				return nloc + l.X>>1 // v is local: its rank among locals
			}
			nloc += clamp(l.X>>1, d.half.X)
		}
	}
	// v is a ghost: its raster ID over the extended region, less the
	// locals before it, counted up from NumLocal.
	e := v.Sub(d.lo)
	p := v.Z & 1
	same := e.Z >> 1 // planes of v's parity below it
	id := same*d.exPlane[p] + (e.Z-same)*d.exPlane[p^1] + (e.Y>>1)*d.exRow[p] + e.X>>1
	return d.nLocal + id - nloc
}

// Neighbourhood writes the storage index of centre+rel[i] into idx[i], for
// every offset of rel: Box.Neighbourhood for a domain, where every such
// site must lie in the extended region (Index panics otherwise) and idx
// must be at least as long as rel.
func (d *Domain) Neighbourhood(centre Vec, rel []Vec, idx []int) {
	for i, r := range rel {
		idx[i] = d.Index(centre.Add(r))
	}
}

// Get returns the species at global site v (local or ghost).
func (d *Domain) Get(v Vec) Species { return d.types[d.Index(v)] }

// Set assigns the species at global site v (local or ghost).
func (d *Domain) Set(v Vec, s Species) { d.types[d.Index(v)] = s }

// Types exposes the backing array (locals first, ghosts after).
func (d *Domain) Types() []Species { return d.types }

// ForEachLocal calls fn for every local site in raster order with its
// storage index (which for locals equals the raster-order local rank).
func (d *Domain) ForEachLocal(fn func(v Vec, index int)) {
	d.forEachRegion(d.Origin, d.Size, fn)
}

// ForEachGhost calls fn for every ghost site with its storage index.
func (d *Domain) ForEachGhost(fn func(v Vec, index int)) {
	exLo := d.Origin.Sub(Vec{d.Ghost, d.Ghost, d.Ghost})
	exSize := d.Size.Add(Vec{2 * d.Ghost, 2 * d.Ghost, 2 * d.Ghost})
	d.forEachRegion(exLo, exSize, func(v Vec, _ int) {
		if !d.IsLocal(v) {
			fn(v, d.Index(v))
		}
	})
}

func (d *Domain) forEachRegion(lo, size Vec, fn func(v Vec, index int)) {
	for z := lo.Z; z < lo.Z+size.Z; z++ {
		pz := mod2(z)
		for y := lo.Y; y < lo.Y+size.Y; y++ {
			if mod2(y) != pz {
				continue
			}
			for x := lo.X; x < lo.X+size.X; x++ {
				if mod2(x) != pz {
					continue
				}
				v := Vec{x, y, z}
				fn(v, d.Index(v))
			}
		}
	}
}
