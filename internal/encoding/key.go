package encoding

// Canonical content-addressing of vacancy systems.
//
// Two vacancy systems with the same VET — the same species at every CET
// index — have identical energetics: the tables fix the geometry, so the
// species vector is the complete local environment. That makes the VET
// itself the natural cache key for the paper's vacancy cache (Sec. 3.2)
// generalized across vacancies and across engines: any two vacancies
// anywhere in the box (or on different ranks) whose environments encode
// identically share one cache entry.
//
// The address has two parts:
//
//   - Fingerprint: a 64-bit FNV-1a hash of the one-byte-per-site
//     encoding (EncodeEnv, the wire's eval frame body), used for
//     sharding, bucket lookup and fleet ring placement. It hashes that
//     form, not the packed one, so shard and ring placement are the same
//     for every server and client whatever a cache stores.
//   - The packed key (PackEnv): the same species at four sites per byte,
//     2 bits each, least-significant first — ⌈NAll/4⌉ bytes, 296 at
//     6.5 Å instead of 1,181. It is what a cache entry and an in-flight
//     evaluation store, and every hit compares it whole against the
//     request's packed key. Fe, Cu and vacancy are 0, 1 and 2, so
//     packing is exact: two VETs pack equal exactly when they are equal.
//     Hash equality is never trusted alone: the repo's trajectory
//     contracts require cached and uncached runs to be bit-identical,
//     and a silent hash collision would poison a trajectory undetectably.

import (
	"fmt"

	"tensorkmc/internal/lattice"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint returns the 64-bit FNV-1a hash of the VET's canonical byte
// encoding. It allocates nothing and is safe for concurrent use.
func (t *Tables) Fingerprint(vet VET) uint64 {
	if len(vet) != t.NAll {
		panic("encoding: Fingerprint VET length mismatch")
	}
	h := uint64(fnvOffset64)
	for _, s := range vet {
		h ^= uint64(uint8(s))
		h *= fnvPrime64
	}
	return h
}

// EncodeEnv returns the canonical byte encoding of the VET: one byte per
// CET entry in table order. The encoding is positional — it is invariant
// exactly under changes that leave every site's species untouched (e.g.
// exchanging two like atoms), and distinguishes any two environments that
// differ at any site.
func (t *Tables) EncodeEnv(vet VET) []byte {
	if len(vet) != t.NAll {
		panic("encoding: EncodeEnv VET length mismatch")
	}
	env := make([]byte, len(vet))
	for i, s := range vet {
		env[i] = byte(s)
	}
	return env
}

// DecodeEnv reconstructs a VET from its canonical byte encoding. It
// refuses a byte above Vacancy, naming the first such site: no species
// has that value, and the packed key could not hold it.
func (t *Tables) DecodeEnv(env []byte) (VET, error) {
	if len(env) != t.NAll {
		panic("encoding: DecodeEnv length mismatch")
	}
	vet := t.NewVET()
	for i, b := range env {
		if b > byte(lattice.Vacancy) {
			return nil, badSpecies(i, b)
		}
		vet[i] = lattice.Species(b)
	}
	return vet, nil
}

func badSpecies(site int, b byte) error {
	return fmt.Errorf("encoding: site %d holds species byte %d, above vacancy (%d)", site, b, lattice.Vacancy)
}

// Masks of the eight-site pack step: a byte with a bit set in hiBits is
// above 3, and a byte whose two low bits are both set is 3; either is
// above Vacancy.
const (
	hiBits  = 0xfcfcfcfcfcfcfcfc
	lowBits = 0x0101010101010101
)

// PackEnv packs the VET at four sites per byte, 2 bits each,
// least-significant first, into dst's storage (grown if its capacity is
// short of ⌈NAll/4⌉) and returns the packed key. It refuses a species
// above Vacancy, naming the first such site. The packed key is what the
// evaluation cache stores and compares; see the package comment.
func (t *Tables) PackEnv(dst []byte, vet VET) ([]byte, error) {
	if len(vet) != t.NAll {
		panic("encoding: PackEnv VET length mismatch")
	}
	n := (len(vet) + 3) / 4
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	// Eight sites per step: one 64-bit word of species bytes folds into
	// 16 bits, pairs of bytes, then pairs of nibbles, then pairs of bytes.
	i := 0
	for ; i+8 <= len(vet); i += 8 {
		v := vet[i : i+8 : i+8]
		w := uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
			uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56
		if w&hiBits|w&(w>>1)&lowBits != 0 {
			return nil, firstBad(vet, i)
		}
		w = (w | w>>6) & 0x000f000f000f000f
		w = (w | w>>12) & 0x000000ff000000ff
		w |= w >> 24
		dst[i/4] = byte(w)
		dst[i/4+1] = byte(w >> 8)
	}
	// The last NAll mod 8 sites, one at a time.
	for j := i / 4; j < n; j++ {
		dst[j] = 0
	}
	for ; i < len(vet); i++ {
		s := vet[i]
		if s > lattice.Vacancy {
			return nil, badSpecies(i, byte(s))
		}
		dst[i/4] |= byte(s) << (2 * (i % 4))
	}
	return dst, nil
}

// firstBad returns the refusal for the first site from i on above
// Vacancy; the caller knows one exists.
func firstBad(vet VET, i int) error {
	for ; vet[i] <= lattice.Vacancy; i++ {
	}
	return badSpecies(i, byte(vet[i]))
}
