package nnp

import (
	"math"
	"testing"

	"tensorkmc/internal/feature"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
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
	src, w, b, relu = gemmData(r, rows, inW, outW)
	return rows, inW, outW, src, w, b, relu
}

// gemmData draws the inputs, weights, bias and activation of a gemmBlock
// problem of the given shape.
func gemmData(r *rng.Stream, rows, inW, outW int) (src, w, b []float64, relu bool) {
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
	return src, w, b, r.Intn(2) == 0
}

// checkGemmBlock runs gemmBlock (the assembly kernels where the host has
// them) and the pure-Go oracle on the case seed draws, and on a 1-wide
// head over the same rows, and compares every output bit.
func checkGemmBlock(t *testing.T, seed uint64) {
	t.Helper()
	rows, inW, outW, src, w, b, relu := gemmCase(seed)
	checkGemmShape(t, seed, rows, inW, outW, src, w, b, relu)
	_, w1, b1, _ := gemmData(rng.New(seed^0x1111), 0, inW, 1)
	checkGemmShape(t, seed, rows, inW, 1, src, w1, b1, relu)
}

// checkGemmShape compares gemmBlock with gemmBlockGo on one problem.
func checkGemmShape(t *testing.T, seed uint64, rows, inW, outW int, src, w, b []float64, relu bool) {
	t.Helper()
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
// seed range, so every test run checks the kernel bit for bit, then a
// sweep over every kernel width — the 1-wide head, one and two
// four-column blocks, the fixture's 16 and 32 — at every row count from
// one quad-free block to two quads plus 1–3 leftover rows.
func TestGemmBlockMatchesScalar(t *testing.T) {
	t.Logf("AVX2 kernel in use: %v", useAVX2)
	for seed := uint64(0); seed < 3000; seed++ {
		checkGemmBlock(t, seed)
	}
	seed := uint64(1 << 32)
	for _, outW := range []int{1, 4, 8, 12, 16, 32} {
		for rows := 1; rows <= 11; rows++ {
			for _, inW := range []int{1, 5, 16, 64} {
				for rep := 0; rep < 4; rep++ {
					seed++
					src, w, b, relu := gemmData(rng.New(seed), rows, inW, outW)
					checkGemmShape(t, seed, rows, inW, outW, src, w, b, relu)
				}
			}
		}
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

// TestBiasActMatchesScalar: biasAct (biasActAVX2 where the host has it)
// equals biasActGo in every bit at every width and row count, with sums
// that are −0, NaN (from the value, the bias or both, distinct payloads),
// subnormal of either sign and infinite planted among random ones. ReLU
// is the scalar `if v < 0 { v = 0 }`: −0 and NaN pass through unchanged, a
// negative subnormal becomes +0 and a positive one stays.
func TestBiasActMatchesScalar(t *testing.T) {
	t.Logf("AVX2 kernel in use: %v", useAVX2)
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	nanA := math.Float64frombits(0x7ff8_0000_0000_0a0a)
	nanB := math.Float64frombits(0xfff8_0000_0000_0b0b)
	pairs := [][2]float64{ // (value, bias)
		{negZero, negZero}, {0, negZero}, {negZero, 0},
		{nanA, 1}, {1, nanB}, {nanA, nanB}, {math.Inf(1), math.Inf(-1)},
		{3 * sub, -5 * sub}, {-3 * sub, 5 * sub}, {0x1p-1022, -0x1p-1023 - 0x1p-1022},
		{-1.5, 1}, {1.5, -1}, {math.Inf(-1), 2},
	}
	for _, relu := range []bool{false, true} {
		for _, pr := range pairs {
			dst := []float64{pr[0], pr[0], pr[0], pr[0]}
			bias := []float64{pr[1], pr[1], pr[1], pr[1]}
			biasAct(dst, 1, 4, bias, relu)
			sum := []float64{pr[0]}
			biasActGo(sum, 1, 1, bias[:1], false)
			want := sum[0]
			if relu && want < 0 {
				want = 0
			}
			for _, v := range dst {
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("relu %v: %v + %v gives %#x, want %#x", relu, pr[0], pr[1], math.Float64bits(v), math.Float64bits(want))
				}
			}
		}
	}
	r := rng.New(5)
	for _, outW := range []int{1, 3, 4, 8, 16, 32} {
		for rows := 1; rows <= 5; rows++ {
			for _, relu := range []bool{false, true} {
				for rep := 0; rep < 8; rep++ {
					got := make([]float64, rows*outW)
					b := make([]float64, outW)
					for i := range got {
						got[i] = r.NormFloat64()
					}
					for i := range b {
						b[i] = r.NormFloat64()
					}
					for _, pr := range pairs {
						i := r.Intn(len(got))
						got[i], b[i%outW] = pr[0], pr[1]
					}
					want := append([]float64(nil), got...)
					biasAct(got, rows, outW, b, relu)
					biasActGo(want, rows, outW, b, relu)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("rows %d outW %d relu %v: out[%d][%d] = %#x, oracle %#x",
								rows, outW, relu, i/outW, i%outW, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// stageCase draws one feature-staging problem from seed: a descriptor of
// one to three elements with 32 random (p, q) sets — every eighth seed
// 8–40 sets, a width the kernel must refuse — one to twelve tabulated
// distances, tallies of 0, 1, 65535 or a few atoms per shell, and means
// and stds of both signs with ±0, subnormals, ±MaxFloat64, infinities and
// NaNs among them. The tabulated values themselves run down to subnormal
// and zero.
func stageCase(seed uint64) (*Potential, *feature.Table, []uint16) {
	r := rng.New(seed)
	nEl, nPQ := 1+r.Intn(3), stageChannels
	if seed%8 == 7 {
		nPQ = 8 + r.Intn(33)
	}
	pq := make([]feature.PQ, nPQ)
	for i := range pq {
		pq[i] = feature.PQ{P: 0.3 + 5*r.Float64(), Q: 0.5 + 4*r.Float64()}
	}
	desc := feature.NewDescriptor(pq, nEl, units.CutoffStandard)
	dist := make([]float64, 1+r.Intn(12))
	for i := range dist {
		dist[i] = 1 + 9*r.Float64()
	}
	cnt := make([]uint16, nEl*len(dist))
	for i := range cnt {
		switch r.Intn(6) {
		case 0, 1: // an empty shell
		case 2:
			cnt[i] = 1
		case 3:
			cnt[i] = math.MaxUint16
		default:
			cnt[i] = uint16(1 + r.Intn(40))
		}
	}
	specials := append([]float64{math.MaxFloat64, -math.MaxFloat64}, gemmSpecials...)
	value := func(scale float64) float64 {
		if r.Intn(10) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return scale * r.NormFloat64()
	}
	p := &Potential{Desc: desc, FeatMean: make([]float64, desc.Dim()), FeatStd: make([]float64, desc.Dim())}
	for c := range p.FeatMean {
		p.FeatMean[c], p.FeatStd[c] = value(20), value(3)
	}
	return p, feature.NewTable(desc, dist), cnt
}

// checkStageRow stages the row of one case with stageInto — stageRowAVX2
// wherever stageSIMD allows it — and compares every bit with
// RowFromCounts then normalizeInto.
func checkStageRow(t *testing.T, seed uint64) {
	t.Helper()
	p, tab, cnt := stageCase(seed)
	simd := p.stageSIMD(tab, len(cnt))
	if want := useAVX2 && tab.Desc().NDim() == stageChannels; simd != want {
		t.Fatalf("seed %d: stageSIMD = %v for %d channels, want %v", seed, simd, tab.Desc().NDim(), want)
	}
	got := make([]float64, p.Desc.Dim())
	want := make([]float64, p.Desc.Dim())
	for i := range got {
		got[i] = 12345 // the row must be overwritten, not accumulated
	}
	p.stageInto(got, tab, cnt, simd)
	tab.RowFromCounts(cnt, want)
	p.normalizeInto(want, want)
	for c := range got {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("seed %d (kernel %v, %d elements, %d shells): channel %d = %#x, oracle %#x",
				seed, simd, p.Desc.NEl, len(cnt)/p.Desc.NEl, c, math.Float64bits(got[c]), math.Float64bits(want[c]))
		}
	}
}

// TestStageRowMatchesScalar is FuzzStageRow's generator over a fixed seed
// range, then the refusals: no normalisation, or a tally shorter than the
// table needs, keeps the pure-Go path.
func TestStageRowMatchesScalar(t *testing.T) {
	t.Logf("AVX2 kernel in use: %v", useAVX2)
	for seed := uint64(0); seed < 2000; seed++ {
		checkStageRow(t, seed)
	}
	p, tab, cnt := stageCase(0)
	if !p.stageSIMD(tab, len(cnt)) && useAVX2 {
		t.Fatal("stageSIMD refuses a 32-channel normalised potential on an AVX2 host")
	}
	if p.stageSIMD(tab, len(cnt)-1) {
		t.Fatal("stageSIMD accepts a tally shorter than the table")
	}
	p.FeatMean, p.FeatStd = nil, nil
	if p.stageSIMD(tab, len(cnt)) {
		t.Fatal("stageSIMD accepts a potential without normalisation")
	}
}

// FuzzStageRow compares the staged row with RowFromCounts then
// normalizeInto under math.Float64bits, over fuzzer-chosen seeds.
func FuzzStageRow(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(checkStageRow)
}

// tripleLoop is the reference GEMM, independent of gemmBlock: for each
// output element, the products summed in ascending k from +0 with no
// zero-skip, then the bias, then ReLU as `if v < 0 { v = 0 }`. It is the
// multi-row form of noSkip in TestZeroSkipObservableOnlyViaNonFiniteWeights.
func tripleLoop(src []float64, rows, inW, outW int, w, b []float64, relu bool) []float64 {
	out := make([]float64, rows*outW)
	for i := 0; i < rows; i++ {
		for j := 0; j < outW; j++ {
			var s float64
			for k := 0; k < inW; k++ {
				s += float64(src[i*inW+k] * w[k*outW+j])
			}
			s += b[j]
			if relu && s < 0 {
				s = 0
			}
			out[i*outW+j] = s
		}
	}
	return out
}

// TestGemmBlockMatchesTripleLoop is the GEMM's independent leg:
// gemmBlockGo, the oracle of the assembly kernels, and gemmBlock, whichever
// path the host runs, equal tripleLoop in every output bit on finite data
// (where the zero-skip is unobservable), with ±0 and subnormal inputs, at
// every kernel width and at row counts with and without leftover rows.
// A hand-computed product anchors the reference itself.
func TestGemmBlockMatchesTripleLoop(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{7, 8, 9, 10, 11, 12}
	for i, v := range tripleLoop(a, 2, 3, 2, b, []float64{0, 0}, false) {
		if want := []float64{58, 64, 139, 154}[i]; v != want {
			t.Fatalf("tripleLoop[%d] = %v, want %v", i, v, want)
		}
	}
	r := rng.New(11)
	value := func() float64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return []float64{math.SmallestNonzeroFloat64, -0x1p-1030, 0x1p-1022}[r.Intn(3)]
		}
		return r.NormFloat64()
	}
	for _, outW := range []int{1, 3, 4, 7, 8, 16, 32} {
		for _, rows := range []int{1, 2, 3, 4, 5, 8, 11, 37} {
			for _, inW := range []int{1, 5, 16, 64} {
				src, w, bias := make([]float64, rows*inW), make([]float64, inW*outW), make([]float64, outW)
				for _, v := range [][]float64{src, w, bias} {
					for i := range v {
						v[i] = value()
					}
				}
				relu := r.Intn(2) == 0
				want := tripleLoop(src, rows, inW, outW, w, bias, relu)
				for name, gemm := range map[string]func(dst, src []float64, rows, inW, outW int, w, b []float64, relu bool){
					"gemmBlockGo": gemmBlockGo, "gemmBlock": gemmBlock,
				} {
					got := make([]float64, rows*outW)
					gemm(got, src, rows, inW, outW, w, bias, relu)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s (rows %d, inW %d, outW %d, relu %v): out[%d][%d] = %#x, triple loop %#x",
								name, rows, inW, outW, relu, i/outW, i%outW, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
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
