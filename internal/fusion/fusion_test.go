package fusion

import (
	"math"
	"testing"

	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sw"
)

// paperNet builds the paper's production architecture with random
// weights and the Fig. 9 example batch N,H,W = 32,16,16 → m = 8192.
func paperNet(t *testing.T) (*nnp.Network, nnp.Matrix) {
	t.Helper()
	net := nnp.NewNetwork(nnp.StandardSizes, rng.New(1))
	const m = 32 * 16 * 16
	x := nnp.NewMatrix(m, 64)
	r := rng.New(2)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	return net, x
}

// TestAllVariantsNumericallyIdentical: every ladder rung must compute the
// same energies as the reference forward pass.
func TestAllVariantsNumericallyIdentical(t *testing.T) {
	net, x := paperNet(t)
	want := net.Forward(x)
	arch := sw.SW26010Pro()
	for _, v := range Variants {
		got := Run(v, net, x, arch)
		if got.Out.Rows != want.Rows || got.Out.Cols != want.Cols {
			t.Fatalf("%v: output shape %dx%d", v, got.Out.Rows, got.Out.Cols)
		}
		for i := range want.Data {
			if got.Out.Data[i] != want.Data[i] {
				t.Fatalf("%v: output[%d] = %v, reference %v", v, i, got.Out.Data[i], want.Data[i])
			}
		}
	}
}

// TestLadderMonotone pins the Fig. 10 shape: every optimisation rung must
// be faster than the previous, with the conv→matmul step modest (~1.2×),
// SIMD and fusion each an order of magnitude territory, and big-fusion
// two orders of magnitude over base.
func TestLadderMonotone(t *testing.T) {
	net, x := paperNet(t)
	arch := sw.SW26010Pro()
	times := map[Variant]float64{}
	for _, v := range Variants {
		times[v] = Run(v, net, x, arch).Seconds
	}
	for i := 1; i < len(Variants); i++ {
		if times[Variants[i]] >= times[Variants[i-1]] {
			t.Fatalf("rung %v (%.3gs) not faster than %v (%.3gs)",
				Variants[i], times[Variants[i]], Variants[i-1], times[Variants[i-1]])
		}
	}
	base := times[Base]
	if s := base / times[Matmul]; s < 1.05 || s > 1.6 {
		t.Errorf("matmul speedup %.2f, want ~1.2 (paper: 1.23)", s)
	}
	if s := base / times[SIMD]; s < 8 || s > 60 {
		t.Errorf("SIMD speedup %.2f, want order 16–22", s)
	}
	if s := base / times[Fused]; s < 20 || s > 80 {
		t.Errorf("fusion speedup %.2f, want order 33–41", s)
	}
	if s := base / times[BigFusion]; s < 80 || s > 400 {
		t.Errorf("big-fusion speedup %.2f, want order 131–161", s)
	}
}

// TestBigFusionTrafficCollapse pins the Fig. 9 claim: big-fusion reduces
// main-memory traffic from tens of MB to the first-input+last-output
// scale, flipping the kernel from memory- to compute-bound.
func TestBigFusionTrafficCollapse(t *testing.T) {
	net, x := paperNet(t)
	arch := sw.SW26010Pro()
	layered := Run(SIMD, net, x, arch)
	big := Run(BigFusion, net, x, arch)
	if layered.Ct.MainBytes < 40e6 {
		t.Fatalf("layered traffic %.3g B, expected tens of MB", layered.Ct.MainBytes)
	}
	if big.Ct.MainBytes > 3e6 {
		t.Fatalf("big-fusion traffic %.3g B, expected ~2.4 MB", big.Ct.MainBytes)
	}
	if ratio := layered.Ct.MainBytes / big.Ct.MainBytes; ratio < 20 {
		t.Fatalf("traffic reduction %.1f×, want ≳25× (paper: 56 MB → 2 MB)", ratio)
	}
	// Intensity (FLOP per main-memory byte) crosses the machine balance.
	if in := (big.Ct.VectorFlops + big.Ct.ScalarFlops) / big.Ct.MainBytes; in < arch.MachineBalance() {
		t.Fatalf("big-fusion intensity %.1f below machine balance %.1f — still memory-bound",
			in, arch.MachineBalance())
	}
	if in := (layered.Ct.VectorFlops + layered.Ct.ScalarFlops) / layered.Ct.MainBytes; in > arch.MachineBalance() {
		t.Fatalf("layered intensity %.1f unexpectedly compute-bound", in)
	}
}

// TestBigFusionLDMFits: the paper states the layout supports up to eight
// conv layers in 256 KB LDM; the production net must fit, and the peak
// usage must be meaningfully non-trivial.
func TestBigFusionLDMFits(t *testing.T) {
	net, x := paperNet(t)
	res := Run(BigFusion, net, x, sw.SW26010Pro())
	if res.PeakLDM <= 0 {
		t.Fatal("no LDM usage recorded")
	}
	if res.PeakLDM > 256<<10 {
		t.Fatalf("peak LDM %d exceeds capacity", res.PeakLDM)
	}
}

// TestBigFusionRejectsTooManyLayers: more layers than CPE columns cannot
// be distributed (the paper's eight-layer limit).
func TestBigFusionRejectsTooManyLayers(t *testing.T) {
	sizes := []int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 1} // 10 layers
	net := nnp.NewNetwork(sizes, rng.New(3))
	x := nnp.NewMatrix(64, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >8 layers")
		}
	}()
	Run(BigFusion, net, x, sw.SW26010Pro())
}

func TestRunSmallBatch(t *testing.T) {
	// Batch smaller than one CPE round must still work (253-atom
	// vacancy systems are the production case).
	net := nnp.NewNetwork([]int{64, 32, 1}, rng.New(4))
	x := nnp.NewMatrix(253, 64)
	r := rng.New(5)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	want := net.Forward(x)
	got := Run(BigFusion, net, x, sw.SW26010Pro())
	for i := range want.Data {
		if math.Abs(got.Out.Data[i]-want.Data[i]) > 0 {
			t.Fatal("small-batch big-fusion numerics wrong")
		}
	}
}

func TestVariantString(t *testing.T) {
	if Base.String() == "" || BigFusion.String() == "" || Variant(99).String() == "" {
		t.Fatal("empty variant names")
	}
}
