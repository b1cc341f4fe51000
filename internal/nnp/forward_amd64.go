//go:build amd64 && !purego

package nnp

// useAVX2 selects the assembly quad kernel in gemmBlock: the CPU has AVX2
// and the OS saves YMM state.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// gemmQuadsAVX2 writes dst = src·w (no bias, no activation) for rows that
// are a positive multiple of four and outW a positive multiple of four,
// bit-identical to gemmBlockGo's accumulation. The caller checks shapes.
//
//go:noescape
func gemmQuadsAVX2(dst, src, w []float64, rows, inW, outW int)
