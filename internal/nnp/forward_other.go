//go:build !amd64 || purego

package nnp

// useAVX2 is false off amd64 and under the purego tag: the hop kernel runs
// the pure-Go code everywhere.
const useAVX2 = false

func gemmQuadsAVX2(dst, src, w []float64, rows, inW, outW int) {
	panic("nnp: AVX2 kernel called without AVX2")
}

func stageRowAVX2(dst []float64, cnt []uint16, tab, mean, std []float64) {
	panic("nnp: AVX2 kernel called without AVX2")
}

func biasActAVX2(dst, b []float64, rows int, relu bool) {
	panic("nnp: AVX2 kernel called without AVX2")
}
