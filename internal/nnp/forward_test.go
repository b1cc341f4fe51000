package nnp

import (
	"math"
	"testing"

	"tensorkmc/internal/rng"
)

// gemmSpecials are the values that break a careless vector kernel: both
// zeros, subnormals, infinities and NaNs with distinct payloads and signs.
var gemmSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8_0000_0000_0000), math.Float64frombits(0x7ff4_0000_0000_0bad),
}

// gemmCase draws one gemmBlock problem from seed: rows in 1–37, inW in
// 1–80, outW from the widths the kernel must cover or refuse, and inputs
// whose quads are all-zero, zero-free or mixed at random, with a sprinkle
// of special values in both inputs and weights.
func gemmCase(seed uint64) (rows, inW, outW int, src, w, b []float64, relu bool) {
	r := rng.New(seed)
	widths := []int{1, 3, 4, 8, 16, 32, 40}
	rows, inW, outW = 1+r.Intn(37), 1+r.Intn(80), widths[r.Intn(len(widths))]
	special := func() float64 { return gemmSpecials[r.Intn(len(gemmSpecials))] }
	// Specials are rare in most cases (a NaN anywhere in a row poisons it)
	// and dense in a few.
	rate := []float64{0, 0.002, 0.02, 0.2}[r.Intn(4)]
	value := func() float64 {
		if r.Float64() < rate {
			return special()
		}
		return r.NormFloat64()
	}
	src = make([]float64, rows*inW)
	for k := 0; k < inW; k++ {
		// Per column k, pick which rows of each quad are zero: none, all,
		// or a random mix, so all three kernel paths run.
		mode := r.Intn(3)
		for i := 0; i < rows; i++ {
			v := value()
			switch {
			case mode == 1, mode == 2 && r.Intn(2) == 0:
				v = gemmSpecials[r.Intn(2)] // ±0
			}
			src[i*inW+k] = v
		}
	}
	w = make([]float64, inW*outW)
	for i := range w {
		w[i] = value()
	}
	b = make([]float64, outW)
	for i := range b {
		b[i] = value()
	}
	return rows, inW, outW, src, w, b, r.Intn(2) == 0
}

// checkGemmBlock runs gemmBlock (the assembly kernel where the host has
// it) and the pure-Go oracle on one case and compares every output bit.
func checkGemmBlock(t *testing.T, seed uint64) {
	t.Helper()
	rows, inW, outW, src, w, b, relu := gemmCase(seed)
	got := make([]float64, rows*outW)
	want := make([]float64, rows*outW)
	for i := range got {
		got[i] = 12345 // gemmBlock must overwrite, not accumulate
	}
	gemmBlock(got, src, rows, inW, outW, w, b, relu)
	gemmBlockGo(want, src, rows, inW, outW, w, b, relu)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("seed %d (rows %d, inW %d, outW %d, relu %v): out[%d][%d] = %#x, oracle %#x",
				seed, rows, inW, outW, relu, i/outW, i%outW, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestGemmBlockMatchesScalar is FuzzGemmBlock's generator over a fixed
// seed range, so every test run checks the kernel bit for bit.
func TestGemmBlockMatchesScalar(t *testing.T) {
	t.Logf("AVX2 kernel in use: %v", useAVX2)
	for seed := uint64(0); seed < 3000; seed++ {
		checkGemmBlock(t, seed)
	}
}

// FuzzGemmBlock compares gemmBlock with the pure-Go oracle under
// math.Float64bits on every output, over fuzzer-chosen seeds.
func FuzzGemmBlock(f *testing.F) {
	for _, s := range []uint64{0, 1, 2, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(checkGemmBlock)
}

// TestZeroSkipObservableOnlyViaNonFiniteWeights pins what the zero-skip
// in the forward kernels means. Accumulators start at +0 and a finite
// product of a zero input is ±0, so adding it never changes an
// accumulator: +0 + ±0 is +0, and no sum of products reaches −0 because
// only −0 + −0 is −0. So for finite weights, skipping a zero input and
// multiplying it through agree in every bit. Only 0·±Inf and 0·NaN
// (both NaN) tell them apart, and the skip keeps the output finite.
func TestZeroSkipObservableOnlyViaNonFiniteWeights(t *testing.T) {
	noSkip := func(src, w []float64, inW, outW int) []float64 {
		out := make([]float64, outW)
		for k := 0; k < inW; k++ {
			for j := range out {
				out[j] += float64(src[k] * w[k*outW+j])
			}
		}
		return out
	}
	negZero := math.Copysign(0, -1)
	r := rng.New(3)
	const inW, outW = 6, 8
	for trial := 0; trial < 500; trial++ {
		src := make([]float64, inW)
		w := make([]float64, inW*outW)
		for k := range src {
			switch r.Intn(3) {
			case 0:
				src[k] = 0
			case 1:
				src[k] = negZero
			default:
				src[k] = r.NormFloat64()
			}
		}
		for i := range w {
			w[i] = r.NormFloat64()
			if r.Intn(4) == 0 {
				w[i] = []float64{0, negZero, math.SmallestNonzeroFloat64, -math.MaxFloat64}[r.Intn(4)]
			}
		}
		got := make([]float64, outW)
		gemmBlockGo(got, src, 1, inW, outW, w, make([]float64, outW), false)
		want := noSkip(src, w, inW, outW)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d col %d: skip gives %#x, multiply-through %#x with finite weights",
					trial, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
	// A zero input against an infinite or NaN weight: the skip keeps the
	// output, multiplying through turns it into NaN.
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		src := []float64{1.5, 0}
		w := []float64{2, bad}
		got := make([]float64, 1)
		gemmBlockGo(got, src, 1, 2, 1, w, []float64{0}, false)
		if got[0] != 3 {
			t.Fatalf("zero input against weight %v: skip gave %v, want 3", bad, got[0])
		}
		if v := noSkip(src, w, 2, 1)[0]; !math.IsNaN(v) {
			t.Fatalf("zero input against weight %v: multiply-through gave %v, want NaN", bad, v)
		}
	}
}
