// Package rng provides the deterministic random number streams used by all
// stochastic parts of TensorKMC. Reproducibility is a hard requirement: the
// Fig. 8 validation compares the TensorKMC engine against the OpenKMC-style
// baseline on bit-identical trajectories, which is only possible when both
// consume an identical, explicitly seeded stream.
//
// The generator is xoshiro256** seeded through SplitMix64, the combination
// recommended by Blackman & Vigna. It is small, allocation-free, and can be
// split into statistically independent sub-streams for parallel ranks.
package rng

import (
	"fmt"
	"math"
)

// Stream is a deterministic pseudo-random number generator. The zero value
// is not valid; construct streams with New or Split.
type Stream struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output. It is
// used only for seeding, per the xoshiro authors' recommendation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given seed. Distinct seeds yield
// independent streams; the same seed always yields the same sequence.
func New(seed uint64) *Stream {
	st := seed
	var s Stream
	for i := range s.s {
		s.s[i] = splitMix64(&st)
	}
	// Guard against the all-zero state, which is a fixed point.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return &s
}

// State returns the generator's full internal xoshiro256** state. Together
// with Restore it lets checkpoints capture and resume a stream mid-sequence
// bit-exactly, which the crash-safe restart path depends on.
func (r *Stream) State() [4]uint64 { return r.s }

// Restore sets the internal state to one previously captured with State.
// The all-zero state is a fixed point of xoshiro256** and is rejected.
func (r *Stream) Restore(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return fmt.Errorf("rng: refusing to restore the all-zero state")
	}
	r.s = s
	return nil
}

// FromState reconstructs a stream from a captured state.
func FromState(s [4]uint64) (*Stream, error) {
	r := &Stream{}
	if err := r.Restore(s); err != nil {
		return nil, err
	}
	return r, nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	// The division becomes a multiply by 2⁻⁵³; the conversion stops an
	// inlined caller's `2*r.Float64() - 1` from fusing it into an FMA.
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float64Open returns a uniform value in (0, 1); it never returns zero,
// which matters for the residence-time algorithm's −ln(r) of Eq. (3).
func (r *Stream) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// ExpDeltaT returns −ln(r)/totalRate, the residence-time increment of
// Eq. (3) for the given total event rate.
func (r *Stream) ExpDeltaT(totalRate float64) float64 {
	return -math.Log(r.Float64Open()) / totalRate
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	carry := t >> 32
	t = aHi*bLo + carry
	mid1 := t & mask
	hi = t >> 32
	t = aLo*bHi + mid1
	lo |= t << 32
	hi += t >> 32
	hi += aHi * bHi
	return hi, lo
}

// NormFloat64 returns a standard normal variate via the polar
// (Marsaglia) method. Used for small synthetic lattice displacements when
// generating NNP training structures.
func (r *Stream) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Split returns a new stream derived from, but statistically independent
// of, the receiver. The id distinguishes siblings (e.g. MPI-style ranks)
// so Split(0) and Split(1) differ deterministically.
func (r *Stream) Split(id uint64) *Stream {
	// Mix the id into fresh entropy drawn from this stream.
	seed := r.Uint64() ^ (id+1)*0xd1342543de82ef95
	return New(seed)
}

// ChildSeed derives the seed of child stream id from a parent seed,
// purely: unlike Split it consumes nothing from any stream, so the same
// (parent, id) always maps to the same child seed no matter when or
// where it is computed. Distinct ids give distinct SplitMix64 start
// states (the increment is odd, so (id+1)·c never collides mod 2⁶⁴),
// whose outputs are then mixed. Ensemble fan-out uses this to hand each
// replica an independent trajectory that any process can re-derive.
func ChildSeed(parent, id uint64) uint64 {
	st := parent + (id+1)*0xd1342543de82ef95
	z := splitMix64(&st)
	return z ^ splitMix64(&st)
}

// Perm fills dst with a uniformly random permutation of [0, len(dst)).
func (r *Stream) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
