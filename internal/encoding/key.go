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
//   - The packed key (PackEnv): the species at four sites per byte, 2
//     bits each, least-significant first — ⌈NAll/4⌉ bytes, 296 at 6.5 Å
//     instead of 1,181. It is what crosses the evaluation wire, what a
//     cache entry and an in-flight evaluation store, and every hit
//     compares it whole against the request's packed key. Fe, Cu and
//     vacancy are 0, 1 and 2, so packing is exact: two VETs pack equal
//     exactly when they are equal, and a key with a slot holding 3 or a
//     set bit past the last site is no VET's (CheckKey refuses it).
//   - KeyHash: a 64-bit hash of the packed key, used for sharding,
//     bucket lookup and fleet ring placement. Fingerprint is KeyHash of
//     the VET's packed key, so a client that packs once can route,
//     send and look up the same bytes, and shard and ring placement are
//     the same for every server and client.
//
// Hash equality is never trusted alone: the repo's trajectory contracts
// require cached and uncached runs to be bit-identical, and a silent hash
// collision would poison a trajectory undetectably.

import (
	"encoding/binary"
	"fmt"

	"tensorkmc/internal/lattice"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyHash returns the 64-bit hash of a packed key: FNV-1a over its
// little-endian 64-bit words (a short last word zero-extended), then
// the murmur3 64-bit finaliser, which spreads every input bit over the
// top bits that pick a cache shard. At 6.5 Å that is 37 words. Keys of
// one Tables all have one length, so the zero extension cannot make two
// of them collide. It allocates nothing.
func KeyHash(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for ; len(key) >= 8; key = key[8:] {
		h ^= binary.LittleEndian.Uint64(key)
		h *= fnvPrime64
	}
	if len(key) > 0 {
		var w uint64
		for i, b := range key {
			w |= uint64(b) << (8 * i)
		}
		h ^= w
		h *= fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// KeyStack is the size of a stack buffer to pack a key into, as
// Fingerprint and every evaluation request do: room for 2,048 sites,
// against 1,181 at 6.5 Å. PackEnv moves a larger table's key to the heap.
const KeyStack = 512

// Fingerprint returns KeyHash of the VET's packed key. It panics on a
// VET that does not pack (a species above Vacancy). It allocates nothing
// at the usual cutoffs and is safe for concurrent use.
// Frozen: bench/ times it as encoding.fingerprint_ns.
func (t *Tables) Fingerprint(vet VET) uint64 {
	var buf [KeyStack]byte
	key, err := t.PackEnv(buf[:0], vet)
	if err != nil {
		panic(err)
	}
	return KeyHash(key)
}

// EncodeEnv returns the VET at one byte per CET entry in table order.
// Frozen: bench/ times it as encoding.encode_env_ns.
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

// KeyLen returns the length of a packed key, ⌈NAll/4⌉.
func (t *Tables) KeyLen() int { return (t.NAll + 3) / 4 }

// CheckKey reports whether key is the packed key of some VET: KeyLen
// bytes, no set bit past the last site and no 2-bit slot holding 3
// (refused naming its site). It allocates nothing on success.
func (t *Tables) CheckKey(key []byte) error {
	if len(key) != t.KeyLen() {
		return fmt.Errorf("encoding: packed key of %d bytes, want %d", len(key), t.KeyLen())
	}
	if n := t.NAll % 4; n != 0 && key[len(key)-1]>>(2*n) != 0 {
		return fmt.Errorf("encoding: packed key byte %d has bits set past site %d", len(key)-1, t.NAll-1)
	}
	// A slot holds 3 when both its bits are set; slots sit at even bit
	// offsets, so one mask tests 32 slots per word.
	i := 0
	for ; i+8 <= len(key); i += 8 {
		if w := binary.LittleEndian.Uint64(key[i:]); w&(w>>1)&0x5555555555555555 != 0 {
			break
		}
	}
	for ; i < len(key); i++ {
		for j, b := 0, key[i]; j < 4; j, b = j+1, b>>2 {
			if b&3 == 3 {
				return badSpecies(4*i+j, 3)
			}
		}
	}
	return nil
}

// UnpackEnv returns a fresh VET from its packed key, refusing what
// CheckKey refuses: UnpackEnv(PackEnv(vet)) is vet.
func (t *Tables) UnpackEnv(key []byte) (VET, error) {
	if err := t.CheckKey(key); err != nil {
		return nil, err
	}
	vet := t.NewVET()
	for i := range vet {
		vet[i] = lattice.Species(key[i/4] >> (2 * (i % 4)) & 3)
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
