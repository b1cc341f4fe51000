package fusion

import (
	"testing"

	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sw"
)

// wideTestInput builds an m×dim input with a realistic mix of signs and
// exact zeros (post-ReLU activations are sparse, and the GEMM's zero-skip
// is part of the bit-identity contract the wide kernel must reproduce).
func wideTestInput(m, dim int, seed uint64) nnp.Matrix {
	x := nnp.NewMatrix(m, dim)
	r := rng.New(seed)
	for i := range x.Data {
		switch r.Uint64() % 4 {
		case 0:
			x.Data[i] = 0
		default:
			x.Data[i] = r.NormFloat64()
		}
	}
	return x
}

// TestWideBitIdenticalF64: the wide operator must reproduce the serial
// big-fusion output bit for bit, for every worker count and for batch
// sizes that do and do not divide the tile size — including the empty
// batch.
func TestWideBitIdenticalF64(t *testing.T) {
	arch := sw.SW26010Pro()
	net := nnp.NewNetwork([]int{48, 96, 32, 1}, rng.New(1))
	for _, m := range []int{0, 1, 31, WideRowBlock, WideRowBlock + 1, 5*WideRowBlock + 17} {
		x := wideTestInput(m, 48, uint64(m)+2)
		ref := Run(BigFusion, net, x, arch)
		for _, workers := range []int{1, 2, 3, 8} {
			got := RunBigFusionWide(net, x, arch, workers)
			if got.Out.Rows != ref.Out.Rows || got.Out.Cols != ref.Out.Cols {
				t.Fatalf("m=%d workers=%d: shape %dx%d, want %dx%d",
					m, workers, got.Out.Rows, got.Out.Cols, ref.Out.Rows, ref.Out.Cols)
			}
			for i, v := range got.Out.Data {
				if v != ref.Out.Data[i] {
					t.Fatalf("m=%d workers=%d: row %d differs: %v != %v", m, workers, i, v, ref.Out.Data[i])
				}
			}
			if got.Ct != ref.Ct {
				t.Fatalf("m=%d workers=%d: counters diverged: %+v != %+v", m, workers, got.Ct, ref.Ct)
			}
			if got.Seconds != ref.Seconds || got.PeakLDM != ref.PeakLDM {
				t.Fatalf("m=%d workers=%d: modelled cost diverged (%v/%d vs %v/%d)",
					m, workers, got.Seconds, got.PeakLDM, ref.Seconds, ref.PeakLDM)
			}
		}
	}
}

// TestWideMatchesNetworkForward: a row forwarded alone through
// Network.Forward, which nnp.Potential.RegionEnergy runs, equals the same
// row inside a tiled, multi-worker block, where the AVX2 quads compute it.
// The incremental hop kernel is bit-identical to RegionEnergy passes only
// because of this row independence; the GEMM itself is checked against a
// triple loop in nnp's TestGemmBlockMatchesTripleLoop.
func TestWideMatchesNetworkForward(t *testing.T) {
	net := nnp.NewNetwork([]int{24, 40, 1}, rng.New(7))
	x := wideTestInput(2*WideRowBlock+5, 24, 13)
	wide := RunBigFusionWide(net, x, sw.SW26010Pro(), 4)
	for i := 0; i < x.Rows; i++ {
		row := nnp.Matrix{Rows: 1, Cols: x.Cols, Data: x.Row(i)}
		want := net.Forward(row).Data[0]
		if got := wide.Out.Data[i]; got != want {
			t.Fatalf("row %d: wide %v != serial forward %v", i, got, want)
		}
	}
}

// TestWideWorkersResolution pins the worker-count defaulting rule.
func TestWideWorkersResolution(t *testing.T) {
	if got := WideWorkers(3); got != 3 {
		t.Fatalf("WideWorkers(3) = %d", got)
	}
	if got := WideWorkers(0); got < 1 {
		t.Fatalf("WideWorkers(0) = %d, want >= 1", got)
	}
}
