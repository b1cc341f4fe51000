package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero-seeded stream produced only %d distinct values", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	s := New(9)
	for i := 0; i < 100000; i++ {
		if s.Float64Open() == 0 {
			t.Fatal("Float64Open returned 0")
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(13)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		v := s.Intn(8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn(8) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.125) > 0.01 {
			t.Fatalf("Intn(8) bucket %d frequency %v, want ~0.125", i, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpDeltaT(t *testing.T) {
	// Mean of −ln(r)/Γ over many draws must approach 1/Γ.
	s := New(17)
	const rate = 2.5e8
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		dt := s.ExpDeltaT(rate)
		if dt <= 0 {
			t.Fatalf("non-positive time increment %v", dt)
		}
		sum += dt
	}
	mean := sum / n
	want := 1 / rate
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("mean Δt = %v, want ~%v", mean, want)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(19)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	a := parent.Split(0)
	parent2 := New(23)
	b := parent2.Split(0)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
	c := New(23).Split(1)
	d := New(23).Split(0)
	diff := false
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Split(0) and Split(1) produced identical streams")
	}
}

func TestPerm(t *testing.T) {
	s := New(29)
	p := make([]int, 50)
	s.Perm(p)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestMul128AgainstBig(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul128(a, b)
		// Verify via decomposition: (a*b) mod 2^64 must equal lo,
		// and the full product reconstructed from 32-bit limbs must
		// match (hi, lo).
		if lo != a*b {
			return false
		}
		// Reference high word using math/bits-free schoolbook.
		aLo, aHi := a&0xffffffff, a>>32
		bLo, bHi := b&0xffffffff, b>>32
		cross1 := aHi*bLo + (aLo*bLo)>>32
		cross2 := aLo*bHi + (cross1 & 0xffffffff)
		wantHi := aHi*bHi + (cross1 >> 32) + (cross2 >> 32)
		return hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStateRestoreResumesBitExactly(t *testing.T) {
	s := New(99)
	for i := 0; i < 1000; i++ {
		s.Uint64()
	}
	state := s.State()

	// Continue the original; resume a fresh stream from the snapshot.
	resumed, err := FromState(state)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a, b := s.Uint64(), resumed.Uint64()
		if a != b {
			t.Fatalf("draw %d diverged: %x vs %x", i, a, b)
		}
	}
}

func TestRestoreRejectsZeroState(t *testing.T) {
	if err := New(1).Restore([4]uint64{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
	if _, err := FromState([4]uint64{}); err == nil {
		t.Fatal("FromState accepted all-zero state")
	}
}
