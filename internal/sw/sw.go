// Package sw simulates one core group (CG) of the SW26010-pro many-core
// processor (Sec. 2.3 of the paper): a management processing element
// (MPE), an 8×8 mesh of compute processing elements (CPEs) each with a
// software-managed local device memory (LDM), asynchronous DMA to main
// memory, and remote scratchpad memory access (RMA) between CPEs.
//
// The real hardware is unavailable, so the simulator is functional + cost
// model (see DESIGN.md): kernels re-implemented on this substrate compute
// real numbers while the simulator counts flops, main-memory bytes, DMA
// operations and RMA bytes; execution time is then derived from a
// roofline-style model. The architecture constants are anchored to the
// paper's published figures: machine balance 43.63 FLOP/byte (Fig. 9) and
// 76.64% achieved peak for the big-fusion operator (Sec. 3.5).
package sw

import "fmt"

// Arch holds the architectural parameters of one core group.
type Arch struct {
	Name string
	// CPE mesh geometry and LDM capacity per CPE in bytes.
	CPERows, CPECols int
	LDMBytes         int
	// PeakFlops is the single-precision vector peak of the whole CG in
	// FLOP/s; MemBandwidth the main-memory bandwidth in B/s. Their
	// ratio is the machine balance of the roofline.
	PeakFlops    float64
	MemBandwidth float64
	// VectorEff is the achievable fraction of vector peak for a
	// well-tuned kernel (the paper reports 76.64% for big-fusion).
	VectorEff float64
	// ScalarFlops is the effective rate of unvectorised CPE code in
	// FLOP/s: the CPE is an in-order core without a data cache, so
	// naive scalar kernels run two orders of magnitude below vector
	// peak.
	ScalarFlops float64
	// DMALatency is the fixed cost of one DMA transaction in seconds;
	// DMABlock the staging granularity in bytes.
	DMALatency float64
	DMABlock   int
	// RMABandwidth is the aggregate CPE-mesh bandwidth in B/s.
	RMABandwidth float64
	// FeatureFlops is the effective rate of the tabulated feature
	// kernel (Sec. 3.4) on this target in FLOP/s. It differs from the
	// matmul rates because the kernel is table adds over NET/VET data:
	// LDM-resident and near scalar peak on the CPE mesh, cache-friendly
	// on x86, but main-memory bound on the lone MPE. Calibrated to the
	// paper's Fig. 11 ratios (CPE ≈ 60× MPE, ≈ 14× EPYC).
	FeatureFlops float64
}

// NumCPEs returns the mesh population.
func (a Arch) NumCPEs() int { return a.CPERows * a.CPECols }

// MachineBalance returns peak/bandwidth in FLOP/byte — 43.63 for the new
// Sunway (Fig. 9).
func (a Arch) MachineBalance() float64 { return a.PeakFlops / a.MemBandwidth }

// SW26010Pro returns the new-generation Sunway core group model. The
// peak is chosen so that PeakFlops/MemBandwidth = 43.63 FLOP/B exactly,
// matching the paper's roofline.
func SW26010Pro() Arch {
	const bw = 51.2e9
	return Arch{
		Name:         "SW26010-pro CG",
		CPERows:      8,
		CPECols:      8,
		LDMBytes:     256 << 10,
		PeakFlops:    43.63 * bw, // 2233.9 GF/s SP
		MemBandwidth: bw,
		VectorEff:    0.7664,
		ScalarFlops:  43.63 * bw / 128, // ~17.5 GF/s: scalar, in-order, uncached
		DMALatency:   5e-7,
		DMABlock:     64 << 10,
		RMABandwidth: 400e9,
		FeatureFlops: 140e9,
	}
}

// MPE returns a model of the management processing element alone: the
// path the unoptimised SW build of Fig. 11 uses for features.
func MPE() Arch {
	return Arch{
		Name:         "SW26010-pro MPE",
		CPERows:      1,
		CPECols:      1,
		LDMBytes:     0,
		PeakFlops:    35e9, // one wide core
		MemBandwidth: 12e9, // single-thread streaming share
		VectorEff:    0.6,
		ScalarFlops:  2.2e9,
		DMALatency:   0,
		DMABlock:     1 << 20,
		RMABandwidth: 0,
		FeatureFlops: 3e9,
	}
}

// EPYC returns the AMD Ryzen EPYC 7452 comparison model of Fig. 11
// (running libtensorflow_cc with FusedConv2D, per the paper's appendix).
func EPYC() Arch {
	return Arch{
		Name:         "AMD EPYC 7452",
		CPERows:      1,
		CPECols:      1,
		LDMBytes:     0,
		PeakFlops:    150e9, // TF-effective SP throughput of the socket share used
		MemBandwidth: 40e9,
		VectorEff:    0.8,
		ScalarFlops:  10e9, // cached scalar code is far less penalised than on a CPE
		DMALatency:   0,
		DMABlock:     1 << 20,
		RMABandwidth: 0,
		FeatureFlops: 10e9,
	}
}

// Counters accumulate the work of a kernel run on the simulated CG.
type Counters struct {
	VectorFlops float64 // vectorisable multiply-add work (counted as 2 per MA)
	ScalarFlops float64 // work executed without SIMD
	MainBytes   float64 // main-memory traffic (both directions)
	DMAOps      float64 // discrete DMA transactions
	RMABytes    float64 // CPE-to-CPE traffic
}

// Time estimates execution time on arch. When overlap is true (the
// asynchronous double-buffered DMA flow of Fig. 6e/6f), compute and the
// whole memory phase (transfer + transaction latencies) overlap and the
// slower one dominates; otherwise they serialise. RMA transfer always
// adds (weight broadcasts synchronise the row, Algorithm 1 line 19).
func (c Counters) Time(a Arch, overlap bool) float64 {
	compute := c.VectorFlops/(a.PeakFlops*a.VectorEff) + c.ScalarFlops/a.ScalarFlops
	mem := c.MainBytes/a.MemBandwidth + float64(c.DMAOps*a.DMALatency)
	var t float64
	if overlap {
		t = max(compute, mem)
	} else {
		t = compute + mem
	}
	if a.RMABandwidth > 0 {
		t += c.RMABytes / a.RMABandwidth
	}
	return t
}

// LDM is one CPE's software-managed scratchpad. Allocations must fit;
// exceeding capacity is a programming error on real hardware (the kernel
// simply cannot be compiled/run), so it panics here.
type LDM struct {
	cap  int
	used int
	peak int
}

// NewLDM returns a scratchpad of the given capacity.
func NewLDM(capacity int) *LDM { return &LDM{cap: capacity} }

// Alloc reserves n bytes and returns an error-free token amount; it
// panics if the scratchpad would overflow, mirroring the hard 256 KB
// limit the big-fusion layout must respect (Sec. 3.5: "can support up to
// eight layers of convolutional layers").
func (l *LDM) Alloc(n int) {
	if n < 0 {
		panic("sw: negative LDM allocation")
	}
	l.used += n
	if l.used > l.peak {
		l.peak = l.used
	}
	if l.used > l.cap {
		panic(fmt.Sprintf("sw: LDM overflow: %d bytes used, capacity %d", l.used, l.cap))
	}
}

// Free releases n bytes.
func (l *LDM) Free(n int) {
	l.used -= n
	if l.used < 0 {
		panic("sw: LDM double free")
	}
}

// Peak reports the high-water usage.
func (l *LDM) Peak() int { return l.peak }

// CoreGroup is the simulated CG: an LDM per CPE plus shared counters.
type CoreGroup struct {
	Arch Arch
	LDMs []*LDM
	Ct   Counters
}

// NewCoreGroup builds a fresh CG.
func NewCoreGroup(a Arch) *CoreGroup {
	cg := &CoreGroup{Arch: a}
	for i := 0; i < a.NumCPEs(); i++ {
		cg.LDMs = append(cg.LDMs, NewLDM(a.LDMBytes))
	}
	return cg
}

// DMAGet models one DMA read of n bytes from main memory into a CPE LDM.
func (cg *CoreGroup) DMAGet(cpe, n int) {
	cg.LDMs[cpe].Alloc(0) // bounds check the CPE id via slice access
	cg.Ct.MainBytes += float64(n)
	cg.Ct.DMAOps++
}

// DMAPut models one DMA write of n bytes from a CPE LDM to main memory.
func (cg *CoreGroup) DMAPut(cpe, n int) {
	cg.LDMs[cpe].Alloc(0)
	cg.Ct.MainBytes += float64(n)
	cg.Ct.DMAOps++
}

// RMARowBroadcast models one CPE broadcasting n bytes to the other CPEs
// of its row (Fig. 6d): (cols−1)·n bytes cross the mesh.
func (cg *CoreGroup) RMARowBroadcast(n int) {
	cg.Ct.RMABytes += float64(n * (cg.Arch.CPECols - 1))
}
