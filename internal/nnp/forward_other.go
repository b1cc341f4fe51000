//go:build !amd64 || purego

package nnp

// useAVX2 is false off amd64 and under the purego tag: gemmBlock runs the
// pure-Go kernel everywhere.
const useAVX2 = false

func gemmQuadsAVX2(dst, src, w []float64, rows, inW, outW int) {
	panic("nnp: AVX2 kernel called without AVX2")
}
