package fusion

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tensorkmc/internal/nnp"
	"tensorkmc/internal/sw"
)

// The wide-GEMM big-fusion operator: the same Algorithm 1 kernel as
// fusion.Run(BigFusion, ...), restructured for the host side. The batch
// is cut into cache-resident row tiles; each tile runs through every
// layer inside a reusable scratch buffer (no per-layer allocation, no
// cold-memory zeroing, activations stay in L1/L2), and tiles are handed
// to a goroutine pool so multi-core hosts overlap them.
//
// Determinism contract: every output row depends only on its own input
// row and runs the exact float-operation sequence of the serial path
// (ascending-k accumulation with the GEMM's zero-skip, then bias, then
// activation — see nnp.ForwardBlockInto). Tiling and worker scheduling
// only change WHICH goroutine computes a row, never the operations in
// it, so the output is bit-identical to Run(BigFusion, ...) for any
// worker count and any tile size.
//
// The modelled Sunway cost (Result.Ct, Result.Seconds, Result.PeakLDM)
// is accounted analytically with the same traffic model as the serial
// big-fusion run — the wide operator is a host-scheduling improvement;
// the simulated accelerator executes the same kernel either way.

// WideRowBlock is the row-tile height of the wide operator. 64 rows ×
// the widest layer (128 for the production network) × 8 bytes is 64 KiB
// of activation state per worker — comfortably L2-resident, and a
// multiple of the paper's m_block so the modelled DMA pattern matches.
const WideRowBlock = 64

// WideWorkers resolves a worker-count request: non-positive means one
// worker per available CPU (GOMAXPROCS).
func WideWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// RunBigFusionWide executes the big-fusion operator as a blocked,
// goroutine-parallel wide GEMM in float64. Output and modelled cost are
// bit-identical to Run(BigFusion, net, x, arch) for every workers value;
// the function is safe for concurrent callers (all shared state is
// read-only network parameters).
func RunBigFusionWide(net *nnp.Network, x nnp.Matrix, arch sw.Arch, workers int) Result {
	cg := sw.NewCoreGroup(arch)
	accountBigFusion(cg, net, x.Rows)
	out := nnp.NewMatrix(x.Rows, net.OutputDim())
	forEachTile(x.Rows, WideWorkers(workers), func() tileFunc {
		s := &nnp.BlockScratch{}
		return func(lo, hi int) { net.ForwardBlockInto(x, out, lo, hi, s) }
	})
	return finishResult(cg, arch, out)
}

// tileFunc processes one row tile [lo, hi).
type tileFunc func(lo, hi int)

// forEachTile dispatches row tiles of WideRowBlock rows to a worker
// pool. mk is called once per worker to build its private tile function
// (closing over per-worker scratch); tiles are claimed from an atomic
// cursor, so the assignment of tiles to workers is scheduling-dependent
// but the computed rows are disjoint and row-independent — the result
// does not depend on the schedule. With one worker everything runs
// inline on the caller's goroutine.
func forEachTile(rows, workers int, mk func() tileFunc) {
	nTiles := (rows + WideRowBlock - 1) / WideRowBlock
	if workers > nTiles {
		workers = nTiles
	}
	if workers <= 1 {
		f := mk()
		for lo := 0; lo < rows; lo += WideRowBlock {
			hi := lo + WideRowBlock
			if hi > rows {
				hi = rows
			}
			f(lo, hi)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := mk()
			for {
				t := int(cursor.Add(1)) - 1
				if t >= nTiles {
					return
				}
				lo := t * WideRowBlock
				hi := lo + WideRowBlock
				if hi > rows {
					hi = rows
				}
				f(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// accountBigFusion charges the simulated core group with the exact
// counter sequence of the serial big-fusion run for an m-row batch:
// parameter distribution, per-CPE LDM residency, per-block input/output
// DMA, per-block flops and per-iteration RMA parameter broadcasts. It
// performs no numerics, so the wide path can run them separately (and
// in parallel) while reporting the same modelled cost.
func accountBigFusion(cg *sw.CoreGroup, net *nnp.Network, m int) {
	if len(net.Layers) > cg.Arch.CPECols {
		panic(fmt.Sprintf("fusion: %d layers exceed the %d CPE columns (paper supports up to eight)",
			len(net.Layers), cg.Arch.CPECols))
	}
	nCPE := cg.Arch.NumCPEs()
	const mBlock = 32 // the paper's m_block (matches runBigFusion)

	maxW := 0
	totalParamBytes := 0
	for _, l := range net.Layers {
		if l.W.Cols > maxW {
			maxW = l.W.Cols
		}
		if l.W.Rows > maxW {
			maxW = l.W.Rows
		}
		totalParamBytes += (len(l.W.Data) + len(l.B)) * 4
	}
	perCPEShare := (totalParamBytes/len(net.Layers) + cg.Arch.CPERows - 1) / cg.Arch.CPERows
	for c := 0; c < nCPE; c++ {
		cg.LDMs[c].Alloc(perCPEShare)
	}
	dmaTransfer(cg, totalParamBytes)

	stateBuf := 2 * mBlock * maxW * 4
	layerBuf := 0
	for _, l := range net.Layers {
		if b := (len(l.W.Data) + len(l.B)) * 4; b > layerBuf {
			layerBuf = b
		}
	}
	for c := 0; c < nCPE; c++ {
		cg.LDMs[c].Alloc(stateBuf + layerBuf)
	}

	inDim := net.InputDim()
	for start := 0; start < m; start += nCPE * mBlock {
		for cpe := 0; cpe < nCPE; cpe++ {
			lo := start + cpe*mBlock
			if lo >= m {
				break
			}
			hi := lo + mBlock
			if hi > m {
				hi = m
			}
			rows := hi - lo
			cg.DMAGet(cpe, rows*inDim*4)
			for _, layer := range net.Layers {
				cg.Ct.VectorFlops += float64(2*rows*layer.W.Rows*layer.W.Cols) + float64(2*rows*layer.W.Cols)
			}
			cg.DMAPut(cpe, rows*net.OutputDim()*4)
		}
		for _, l := range net.Layers {
			cg.RMARowBroadcast((len(l.W.Data) + len(l.B)) * 4)
		}
	}
	for c := 0; c < nCPE; c++ {
		cg.LDMs[c].Free(stateBuf + layerBuf)
	}
}

// finishResult packages the output and the accumulated modelled cost
// (big-fusion overlap semantics) into a Result.
func finishResult(cg *sw.CoreGroup, arch sw.Arch, out nnp.Matrix) Result {
	res := Result{Out: out, Ct: cg.Ct, Seconds: cg.Ct.Time(arch, true)}
	for _, l := range cg.LDMs {
		if l.Peak() > res.PeakLDM {
			res.PeakLDM = l.Peak()
		}
	}
	return res
}
