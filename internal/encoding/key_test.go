package encoding_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func testTables(t *testing.T) *encoding.Tables {
	t.Helper()
	// The short cutoff keeps the tables small enough for quick tests.
	return encoding.New(units.LatticeConstantFe, units.CutoffShort)
}

// pack returns the VET's packed key, failing the test on a refusal.
func pack(t *testing.T, tb *encoding.Tables, vet encoding.VET) []byte {
	t.Helper()
	key, err := tb.PackEnv(nil, vet)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func fillVET(t *testing.T, tb *encoding.Tables, seed uint64, center lattice.Vec) (encoding.VET, *lattice.Box) {
	t.Helper()
	box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.05, 0.001, rng.New(seed))
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	return vet, box
}

// TestKeyRoundTrip: packing a VET and unpacking it back must reproduce
// the exact environment, and therefore the exact hop energies — the
// property the evaluation cache's bit-identity contract rests on.
// Unpacking refuses a slot holding 3 by site.
func TestKeyRoundTrip(t *testing.T) {
	tb := testTables(t)
	vet, _ := fillVET(t, tb, 1, lattice.Vec{X: 12, Y: 12, Z: 12})

	key := pack(t, tb, vet)
	back, err := tb.UnpackEnv(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(vet) {
		t.Fatalf("round-trip length %d, want %d", len(back), len(vet))
	}
	for i := range vet {
		if back[i] != vet[i] {
			t.Fatalf("round-trip species mismatch at CET %d: %v != %v", i, back[i], vet[i])
		}
	}
	if tb.Fingerprint(back) != tb.Fingerprint(vet) || tb.Fingerprint(vet) != encoding.KeyHash(key) {
		t.Fatal("round-trip changed the fingerprint, or it is not the packed key's hash")
	}
	key[1] |= 3 << 6 // site 7
	if _, err := tb.UnpackEnv(key); err == nil || !strings.Contains(err.Error(), "site 7 ") {
		t.Fatalf("unpacking a 3 at site 7: %v", err)
	}

	// Same environment ⇒ bit-identical energies through the model.
	params := eam.Default()
	params.RCut = units.CutoffShort
	params.RIn = 4.6
	ev := eam.NewRegionEvaluator(eam.New(params), tb)
	i1, f1, v1 := ev.HopEnergies(vet)
	i2, f2, v2 := ev.HopEnergies(back)
	if i1 != i2 || f1 != f2 || v1 != v2 {
		t.Fatalf("round-tripped VET gives different energies: %v/%v vs %v/%v", i1, f1, i2, f2)
	}
}

// TestKeyLikeAtomExchangeInvariance: the encoding is positional over
// species, so it is invariant exactly under exchanging two like atoms
// (the VET is unchanged), and sensitive to any species change.
func TestKeyLikeAtomExchangeInvariance(t *testing.T) {
	tb := testTables(t)
	vet, _ := fillVET(t, tb, 2, lattice.Vec{X: 12, Y: 12, Z: 12})
	base := tb.Fingerprint(vet)
	baseKey := pack(t, tb, vet)

	// Find two distinct Fe sites and two sites of differing species.
	feA, feB, fe, cu := -1, -1, -1, -1
	for i := 1; i < len(vet); i++ {
		switch vet[i] {
		case lattice.Fe:
			if feA < 0 {
				feA = i
			} else if feB < 0 {
				feB = i
			}
			if fe < 0 {
				fe = i
			}
		case lattice.Cu:
			if cu < 0 {
				cu = i
			}
		}
	}
	if feA < 0 || feB < 0 || cu < 0 {
		t.Skip("alloy draw lacks the needed species mix")
	}

	// Exchanging two like atoms leaves every site's species — and hence
	// the key — untouched.
	vet[feA], vet[feB] = vet[feB], vet[feA]
	if tb.Fingerprint(vet) != base {
		t.Fatal("like-atom exchange changed the fingerprint")
	}
	if !bytes.Equal(pack(t, tb, vet), baseKey) {
		t.Fatal("like-atom exchange changed the packed key")
	}

	// Exchanging unlike atoms is a different environment.
	vet[fe], vet[cu] = vet[cu], vet[fe]
	if tb.Fingerprint(vet) == base {
		t.Fatal("unlike-atom exchange did not change the fingerprint")
	}
	if bytes.Equal(pack(t, tb, vet), baseKey) {
		t.Fatal("unlike-atom exchange did not change the packed key")
	}
}

// TestKeyCrossVacancyDedup: two vacancies anywhere in the box with
// identical local environments content-address to the same key — the
// cross-vacancy generalisation of the paper's per-slot vacancy cache.
func TestKeyCrossVacancyDedup(t *testing.T) {
	tb := testTables(t)
	box := lattice.NewBox(16, 16, 16, units.LatticeConstantFe)
	cA := lattice.Vec{X: 4, Y: 4, Z: 4}
	cB := lattice.Vec{X: 20, Y: 20, Z: 20}
	box.Set(cA, lattice.Vacancy)
	box.Set(cB, lattice.Vacancy)

	vetA, vetB := tb.NewVET(), tb.NewVET()
	tb.FillVET(vetA, cA, box.Get)
	tb.FillVET(vetB, cB, box.Get)
	if tb.Fingerprint(vetA) != tb.Fingerprint(vetB) {
		t.Fatal("identical environments at different centres fingerprint differently")
	}
	if !bytes.Equal(pack(t, tb, vetA), pack(t, tb, vetB)) {
		t.Fatal("identical environments at different centres pack differently")
	}
}

// TestKeyNearCollisionCompare: the compare-on-hit path must reject an
// entry whose hash matches but whose environment differs. The test
// simulates the collision directly (two environments filed under one
// hash), proving the match never trusts the fingerprint alone.
func TestKeyNearCollisionCompare(t *testing.T) {
	tb := testTables(t)
	vetA, _ := fillVET(t, tb, 3, lattice.Vec{X: 12, Y: 12, Z: 12})

	// A near-collision candidate: identical except one far-shell site.
	vetB := append(encoding.VET(nil), vetA...)
	for i := len(vetB) - 1; i > 0; i-- {
		if vetB[i] == lattice.Fe {
			vetB[i] = lattice.Cu
			break
		}
	}

	// Suppose vetB's fingerprint collided with vetA's and the lookup
	// landed on vetA's entry: the stored key must veto the hit.
	if bytes.Equal(pack(t, tb, vetA), pack(t, tb, vetB)) {
		t.Fatal("compare-on-hit accepted a differing environment")
	}
	// And the fingerprints do differ here, as they should for a
	// single-site change (KeyHash mixes every word).
	if tb.Fingerprint(vetA) == tb.Fingerprint(vetB) {
		t.Fatal("single-site change produced an actual hash collision")
	}
}

// packTables are the two geometries the pack tests cover: 6.5 Å, where
// NAll = 1181 = 4·295 + 1 leaves the last site alone in the last byte,
// and the short cutoff.
func packTables() []*encoding.Tables {
	return []*encoding.Tables{
		encoding.New(units.LatticeConstantFe, units.CutoffStandard),
		encoding.New(units.LatticeConstantFe, units.CutoffShort),
	}
}

// checkPacked asserts that key is vet packed at four sites per byte,
// least-significant first, by unpacking every site: the key determines
// the VET, so two VETs pack equal only when they are equal.
func checkPacked(t *testing.T, vet encoding.VET, key []byte) {
	t.Helper()
	if want := (len(vet) + 3) / 4; len(key) != want {
		t.Fatalf("packed %d sites into %d bytes, want %d", len(vet), len(key), want)
	}
	for i, s := range vet {
		if got := lattice.Species(key[i/4] >> (2 * (i % 4)) & 3); got != s {
			t.Fatalf("site %d unpacks to %v, want %v", i, got, s)
		}
	}
	// Bits past the last site are zero, so equal VETs give equal keys.
	if n := len(vet) % 4; n != 0 && key[len(key)-1]>>(2*n) != 0 {
		t.Fatalf("last byte %#x carries bits past site %d", key[len(key)-1], len(vet)-1)
	}
}

// FuzzPackEnv: for any VET, at 6.5 Å and at the short cutoff, the packed
// key is ⌈NAll/4⌉ bytes, unpacks to the VET and is the same packed into
// a dirty reused buffer; changing one site, the last included, changes
// the key; a byte above Vacancy at any site is refused by site.
func FuzzPackEnv(f *testing.F) {
	if n := packTables()[0].NAll; n != 1181 {
		f.Fatalf("NAll = %d at 6.5 Å, want 1181", n)
	}
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add([]byte{0, 1, 2}, uint16(1180), byte(1))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 1}, uint16(7), byte(3))
	f.Add(bytes.Repeat([]byte{1, 0, 0, 2}, 300), uint16(1176), byte(0xfc))

	f.Fuzz(func(t *testing.T, raw []byte, at uint16, b byte) {
		for _, tb := range packTables() {
			vet := tb.NewVET()
			for i := range vet {
				if len(raw) > 0 {
					vet[i] = lattice.Species(raw[i%len(raw)] % 3)
				}
			}
			key := pack(t, tb, vet)
			checkPacked(t, vet, key)
			dirty := bytes.Repeat([]byte{0xff}, len(key))
			if again, err := tb.PackEnv(dirty[:0], vet); err != nil || !bytes.Equal(again, key) || &again[0] != &dirty[0] {
				t.Fatalf("NAll %d: packing into a reused buffer gave %x, %v", tb.NAll, again, err)
			}

			for _, site := range []int{int(at) % tb.NAll, tb.NAll - 1} {
				other := append(encoding.VET(nil), vet...)
				other[site] = (other[site] + 1 + lattice.Species(b%2)) % 3
				if bytes.Equal(pack(t, tb, other), key) {
					t.Fatalf("NAll %d: VETs differing at site %d pack equal", tb.NAll, site)
				}
				other[site] = lattice.Species(3 + b%253)
				_, err := tb.PackEnv(nil, other)
				if want := fmt.Sprintf("site %d ", site); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("NAll %d: species %d at site %d: refusal %v does not name %q", tb.NAll, other[site], site, err, want)
				}
			}
		}
	})
}

// FuzzUnpackEnv: at 6.5 Å and at the short cutoff, UnpackEnv inverts
// PackEnv, and it refuses exactly the keys no VET packs to — a wrong
// length, a slot holding 3, or a set bit past the last site — which a
// site-by-site oracle decides here independently.
func FuzzUnpackEnv(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x12, 0x00, 0x01})
	f.Add([]byte{0xff})
	f.Add(bytes.Repeat([]byte{0xaa, 0x55, 0x24}, 100))
	f.Add(append(bytes.Repeat([]byte{0}, 295), 0x04))

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, tb := range packTables() {
			vet := tb.NewVET()
			key := make([]byte, tb.KeyLen())
			if len(raw) > 0 {
				for i := range vet {
					vet[i] = lattice.Species(raw[i%len(raw)] % 3)
				}
				for i := range key {
					key[i] = raw[i%len(raw)]
				}
			}
			back, err := tb.UnpackEnv(pack(t, tb, vet))
			if err != nil || !slices.Equal(back, vet) {
				t.Fatalf("NAll %d: UnpackEnv(PackEnv(v)) = %v, %v", tb.NAll, back, err)
			}

			valid := true
			for i := 0; i < 4*len(key); i++ {
				slot := key[i/4] >> (2 * (i % 4)) & 3
				if (i < tb.NAll && slot == 3) || (i >= tb.NAll && slot != 0) {
					valid = false
				}
			}
			got, err := tb.UnpackEnv(key)
			if (err == nil) != valid {
				t.Fatalf("NAll %d: key %x: UnpackEnv error %v, oracle says valid = %v", tb.NAll, key, err, valid)
			}
			if valid && !bytes.Equal(pack(t, tb, got), key) {
				t.Fatalf("NAll %d: key %x unpacks to a VET that packs to another key", tb.NAll, key)
			}
			for _, bad := range [][]byte{key[:len(key)-1], append(slices.Clone(key), 0)} {
				if _, err := tb.UnpackEnv(bad); err == nil {
					t.Fatalf("NAll %d: a %d-byte key was accepted", tb.NAll, len(bad))
				}
			}
		}
	})
}

// TestKeyHashShardSpread: KeyHash's top bits pick a cache shard, so
// 4,096 random dilute-alloy environments (1.34 % Cu, the paper's
// Fe-Cu) must fill 16 shards by KeyHash>>48 within ±25 % of uniform.
func TestKeyHashShardSpread(t *testing.T) {
	tb := packTables()[0]
	const systems, shards = 4096, 16
	r := rng.New(9)
	var counts [shards]int
	vet := tb.NewVET()
	for n := 0; n < systems; n++ {
		vet[0] = lattice.Vacancy
		for i := 1; i < len(vet); i++ {
			vet[i] = lattice.Fe
			if r.Float64() < 0.0134 {
				vet[i] = lattice.Cu
			}
		}
		counts[encoding.KeyHash(pack(t, tb, vet))>>48%shards]++
	}
	for s, c := range counts {
		if want := systems / shards; c < want*3/4 || c > want*5/4 {
			t.Errorf("shard %d holds %d of %d systems, want %d ± 25%%", s, c, systems, want)
		}
	}
}
