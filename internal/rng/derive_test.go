package rng

import "testing"

// TestChildSeedGolden pins ChildSeed and the derived stream's leading
// outputs to literal values. Ensemble replicas embed these seeds in
// child decks; a platform or refactor that shifts them silently breaks
// cross-version reproducibility, so the values are frozen here.
func TestChildSeedGolden(t *testing.T) {
	wantSeeds := []uint64{
		0xfdfb0fb268868252,
		0x6a9af7ed1aef93a3,
		0x5fe8f0640313dcf0,
		0xc74cec52bf308ee9,
	}
	for id, want := range wantSeeds {
		if got := ChildSeed(42, uint64(id)); got != want {
			t.Errorf("ChildSeed(42, %d) = %#016x, want %#016x", id, got, want)
		}
	}
	if got, want := ChildSeed(7, 1023), uint64(0x0d88b0caa44a121e); got != want {
		t.Errorf("ChildSeed(7, 1023) = %#016x, want %#016x", got, want)
	}

	wantDraws := []uint64{
		0x58bc36e4ef23bff4,
		0xaedee7595326706b,
		0x22696cb133141aa9,
		0x008d9574f35be808,
	}
	r := New(ChildSeed(42, 0))
	for i, want := range wantDraws {
		if got := r.Uint64(); got != want {
			t.Errorf("New(ChildSeed(42, 0)) draw %d = %#016x, want %#016x", i, got, want)
		}
	}
}

// TestChildSeedIsPure checks that deriving a child never perturbs any
// existing stream and is order-independent — the property Split lacks
// and fan-out across processes requires.
func TestChildSeedIsPure(t *testing.T) {
	a := ChildSeed(99, 5)
	_ = ChildSeed(99, 6)
	if b := ChildSeed(99, 5); a != b {
		t.Fatalf("ChildSeed not pure: %#x vs %#x", a, b)
	}
	r := New(99)
	before := r.State()
	_ = New(ChildSeed(99, 0))
	if r.State() != before {
		t.Fatal("a child stream perturbed an existing stream")
	}
}

// TestDerivedStreamsDisjoint verifies K=1024 derived streams produce
// pairwise-disjoint leading sequences: no two replicas may share even a
// prefix of their trajectory randomness.
func TestDerivedStreamsDisjoint(t *testing.T) {
	const streams = 1024
	const draws = 8
	seen := make(map[uint64]int, streams*draws)
	seeds := make(map[uint64]bool, streams)
	for id := uint64(0); id < streams; id++ {
		seed := ChildSeed(1234, id)
		if seeds[seed] {
			t.Fatalf("duplicate child seed %#x at id %d", seed, id)
		}
		seeds[seed] = true
		r := New(seed)
		for d := 0; d < draws; d++ {
			v := r.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d and %d share output %#x", prev, id, v)
			}
			seen[v] = int(id)
		}
	}
}
