//go:build amd64 && !purego

package nnp

// useAVX2 selects the assembly kernels: the CPU has AVX2 and the OS saves
// YMM state.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// gemmQuadsAVX2 writes dst = src·w (no bias, no activation) for rows that
// are a positive multiple of four and outW a positive multiple of four or
// 1, bit-identical to gemmBlockGo's accumulation. The caller checks shapes.
//
//go:noescape
func gemmQuadsAVX2(dst, src, w []float64, rows, inW, outW int)

// stageRowAVX2 writes the normalised feature row (cnt×TABLE − mean)/std of
// 32-channel element blocks into dst, bit-identical to
// feature.Table.RowFromCounts then Potential.normalizeInto. The caller
// checks shapes (Potential.stageSIMD).
//
//go:noescape
func stageRowAVX2(dst []float64, cnt []uint16, tab, mean, std []float64)

// biasActAVX2 adds b to each of rows rows of dst, then applies ReLU if relu
// is set, bit-identical to biasActGo, for len(b) a positive multiple of
// four and rows > 0. The caller checks shapes.
//
//go:noescape
func biasActAVX2(dst, b []float64, rows int, relu bool)
