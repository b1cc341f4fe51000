package evalserve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/fusion"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/sw"
	"tensorkmc/internal/telemetry"
)

// Result is one vacancy system's complete hop-energy evaluation: the
// exact f64 outputs of the 1+8 state evaluation (Sec. 3.4). It is what
// the cache stores, what the batcher returns, and what the wire protocol
// carries.
type Result struct {
	// Initial is the relaxed region energy of the current state; Final
	// holds the region energy after each of the 8 NN1 hops, defined only
	// where Valid marks the direction open (an atom is there to swap
	// with).
	Initial float64
	Final   [8]float64
	Valid   [8]bool
}

// Backend evaluates batches of vacancy systems. Implementations must be
// safe for concurrent EvaluateBatch calls (the server runs a bounded
// worker pool) and must produce, for every VET, outputs bit-identical to
// a direct kmc.Model.HopEnergies evaluation of the same environment.
type Backend interface {
	Tables() *encoding.Tables
	EvaluateBatch(vets []encoding.VET) []Result
}

// --- Generic model-pool backend ----------------------------------------

// ModelBackend adapts any kmc.Model factory (EAM, bond-count, NNP) into a
// Backend: each EvaluateBatch borrows one model from a fixed pool and
// evaluates the systems sequentially. It brings the cache and the service
// front-end to non-NNP potentials; the wide-matrix win needs the
// FusionBackend.
type ModelBackend struct {
	tb   *encoding.Tables
	pool chan kmc.Model
}

// NewModelBackend builds a pool of `size` models (one per concurrent
// EvaluateBatch caller; the server sizes it to its worker count).
func NewModelBackend(factory func() kmc.Model, size int) *ModelBackend {
	if size < 1 {
		size = 1
	}
	mb := &ModelBackend{pool: make(chan kmc.Model, size)}
	for i := 0; i < size; i++ {
		m := factory()
		if mb.tb == nil {
			mb.tb = m.Tables()
		}
		mb.pool <- m
	}
	return mb
}

// Tables returns the shared encoding tables.
func (mb *ModelBackend) Tables() *encoding.Tables { return mb.tb }

// EvaluateBatch evaluates each system through one pooled model.
func (mb *ModelBackend) EvaluateBatch(vets []encoding.VET) []Result {
	m := <-mb.pool
	defer func() { mb.pool <- m }()
	out := make([]Result, len(vets))
	for i, vet := range vets {
		out[i].Initial, out[i].Final, out[i].Valid = m.HopEnergies(vet)
	}
	return out
}

// --- Fusion-batched NNP backend ----------------------------------------

// Precision selects the arithmetic of the fused evaluation.
type Precision int

const (
	// F64 runs the big-fusion operator in double precision — per-row
	// bit-identical to nnp.Potential.HopEnergies (the matmul is
	// row-independent), which is what the trajectory contract requires.
	F64 Precision = iota
	// F32 runs fusion.RunBigFusionF32, the arithmetic of the real
	// SW26010-pro. Faster and still deterministic, but NOT bit-identical
	// to the f64 engine path: only opt in when a cached run is never
	// compared against an uncached one.
	F32
)

// FusionStats counts the accelerator-side work of a FusionBackend.
type FusionStats struct {
	// Batches and Systems count EvaluateBatch calls and the systems they
	// carried; Rows counts feature rows pushed through the big-fusion
	// operator (the batch width the accelerator actually sees).
	Batches int64
	Systems int64
	Rows    int64
	// ModeledSeconds accumulates the simulated-Sunway time of every
	// fused kernel launch.
	ModeledSeconds float64
}

// FusionBackend evaluates NNP vacancy systems by coalescing every region
// site of every state of every system in the batch into per-element
// feature matrices and running each through the wide-GEMM big-fusion
// operator (fusion.RunBigFusionWide) — the SMC-AI pattern of turning
// many small Monte Carlo energy requests into a few wide accelerator
// matrix calls, blocked into cache-resident row tiles and spread over a
// goroutine pool. Row independence of the fused matmul makes the
// per-site energies, and therefore the summed region energies,
// bit-identical to the one-system-at-a-time path for any worker count.
//
// Concurrency: EvaluateBatch is safe for concurrent callers (the server
// runs a bounded worker pool); each call builds private working state
// and only the stats are shared, under fb.mu. SetTelemetry and
// SetWorkers must be called before the backend is shared.
type FusionBackend struct {
	pot     *nnp.Potential
	tb      *encoding.Tables
	tab     *feature.Table
	arch    sw.Arch
	prec    Precision
	workers int // GEMM/feature worker count; 0 = GOMAXPROCS

	mu    sync.Mutex
	stats FusionStats

	// scratch pools the per-call fused feature matrices. Every row of a
	// borrowed buffer is fully overwritten by pass 2 before it is read,
	// so reuse is invisible to results — it only removes the page-fault
	// cost of faulting in tens of megabytes of fresh matrix per batch.
	scratch sync.Pool

	featurePh, fusionPh *telemetry.Phase // nil when telemetry is off
}

// fbScratch is one EvaluateBatch call's reusable feature-matrix backing
// store (one buffer per element head).
type fbScratch struct {
	bufs [lattice.NumElements][]float64
}

// NewFusionBackend binds a trained potential to tables and an (emulated)
// accelerator architecture. The batched evaluation parallelises across
// fusion.WideWorkers(0) goroutines by default; tune with SetWorkers.
func NewFusionBackend(pot *nnp.Potential, tb *encoding.Tables, prec Precision) *FusionBackend {
	return &FusionBackend{
		pot:  pot,
		tb:   tb,
		tab:  feature.NewTable(pot.Desc, tb.Distances),
		arch: sw.SW26010Pro(),
		prec: prec,
	}
}

// SetWorkers fixes the goroutine count used for feature assembly and the
// wide GEMM (non-positive restores the GOMAXPROCS default). Worker count
// never changes results — only wall time. Call before the backend is
// shared across server workers.
func (fb *FusionBackend) SetWorkers(n int) { fb.workers = n }

// Tables returns the encoding tables.
func (fb *FusionBackend) Tables() *encoding.Tables { return fb.tb }

// SetTelemetry times the two halves of every fused evaluation under
// evalserve/batch — row counting (pass 1) under PhaseFeature, and the
// fused assemble-and-evaluate pipeline under PhaseFusion — so the run
// summary shows where accelerator batches spend their wall time. Call
// before the backend is shared across workers.
func (fb *FusionBackend) SetTelemetry(set *telemetry.Set) {
	if set == nil {
		return
	}
	batch := set.Trace().PhaseAt(telemetry.PhaseEvalServe, telemetry.PhaseBatch)
	fb.featurePh = batch.Child(telemetry.PhaseFeature)
	fb.fusionPh = batch.Child(telemetry.PhaseFusion)
}

// Stats snapshots the accelerator counters.
func (fb *FusionBackend) Stats() FusionStats {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.stats
}

// span locates one (system, state, element) group's rows in the fused
// per-element matrix: rows [start, start+count).
type span struct {
	start, count int
}

// EvaluateBatch runs the fused 1+8 evaluation for every system at once.
func (fb *FusionBackend) EvaluateBatch(vets []encoding.VET) []Result {
	tb, pot := fb.tb, fb.pot
	dim := pot.Desc.Dim()
	nSys := len(vets)
	out := make([]Result, nSys)

	// Work on private copies: ApplyHop mutates the VET in place, and the
	// caller's buffers may be shared with a blocked engine goroutine.
	work := make([]encoding.VET, nSys)
	for s, vet := range vets {
		if len(vet) != tb.NAll {
			panic(fmt.Sprintf("evalserve: VET length %d, want %d", len(vet), tb.NAll))
		}
		work[s] = append(encoding.VET(nil), vet...)
	}

	featSW := fb.featurePh.Start()
	// Pass 1 — count rows per element so the fused matrices can be
	// allocated exactly. State 0 is the initial state; state k+1 is hop k.
	rowsPerElem := make([]int, lattice.NumElements)
	spans := make([][9][lattice.NumElements]span, nSys)
	forEachState(tb, work, func(s, state int, vet encoding.VET) {
		for e := 0; e < lattice.NumElements; e++ {
			n := 0
			for i := 0; i < tb.NRegion; i++ {
				if vet[i] == lattice.Species(e) {
					n++
				}
			}
			spans[s][state][e] = span{start: rowsPerElem[e], count: n}
			rowsPerElem[e] += n
		}
	})
	featSW.Stop()

	// Pass 2 — compute, normalise and evaluate every feature row. Systems
	// are independent (each owns the disjoint row ranges pass 1 assigned
	// it), so they are spread over the worker pool; the per-row arithmetic
	// — ComputeSite into the row, then the in-place channel normalisation
	// — is exactly NormalizeInto's, minus the copy.
	workers := fusion.WideWorkers(fb.workers)
	fusionSW := fb.fusionPh.Start()
	outs := make([]nnp.Matrix, lattice.NumElements)
	var modeled float64
	var totalRows int64
	if fb.prec == F64 {
		// Streaming pipeline: each worker stages up to WideRowBlock rows
		// per element and forwards the tile through the wide run while it
		// is still cache-hot, so the fused input matrix — tens of
		// megabytes at production widths — never round-trips through DRAM
		// between feature assembly and the GEMM. Within a system, an
		// element's rows are globally contiguous across states (pass 1
		// numbers them system-major), so a stage only ever holds one
		// contiguous output range; stages flush at tile and system
		// boundaries.
		var runs [lattice.NumElements]*fusion.WideRun
		for e := 0; e < lattice.NumElements; e++ {
			if rowsPerElem[e] > 0 {
				runs[e] = fusion.BeginBigFusionWide(pot.Nets[e], rowsPerElem[e], fb.arch)
			}
		}
		forEachSystem(nSys, workers, func() func(s int) {
			scratch := &nnp.BlockScratch{}
			type stage struct {
				x  nnp.Matrix
				n  int // staged rows
				g0 int // global output row of staged row 0
			}
			var stages [lattice.NumElements]stage
			for e := range stages {
				stages[e].x = nnp.NewMatrix(fusion.WideRowBlock, dim)
			}
			flush := func(e int) {
				st := &stages[e]
				if st.n == 0 {
					return
				}
				tile := nnp.Matrix{Rows: st.n, Cols: dim, Data: st.x.Data[:st.n*dim]}
				runs[e].Rows(tile, st.g0, scratch)
				st.n = 0
			}
			return func(s int) {
				var cursor [lattice.NumElements]int
				forSystemStates(tb, work[s], func(state int, vet encoding.VET) {
					for e := 0; e < lattice.NumElements; e++ {
						cursor[e] = spans[s][state][e].start
					}
					for i := 0; i < tb.NRegion; i++ {
						sp := vet[i]
						if !sp.IsAtom() {
							continue
						}
						e := int(sp)
						st := &stages[e]
						if st.n == fusion.WideRowBlock {
							flush(e)
						}
						if st.n == 0 {
							st.g0 = cursor[e]
						}
						row := st.x.Row(st.n)
						feature.ComputeSite(tb, fb.tab, vet, i, row)
						pot.NormalizeInPlace(row)
						st.n++
						cursor[e]++
					}
				})
				for e := range stages {
					flush(e)
				}
			}
		})
		for e := range runs {
			if runs[e] == nil {
				outs[e] = nnp.NewMatrix(0, 1)
				continue
			}
			res := runs[e].Finish()
			outs[e] = res.Out
			modeled += res.Seconds
			totalRows += int64(res.Out.Rows)
		}
	} else {
		// F32 materialises the fused per-element matrices (quantisation
		// converts them wholesale) and launches one wide kernel per head.
		sc, _ := fb.scratch.Get().(*fbScratch)
		if sc == nil {
			sc = &fbScratch{}
		}
		xs := make([]nnp.Matrix, lattice.NumElements)
		for e := range xs {
			n := rowsPerElem[e] * dim
			if cap(sc.bufs[e]) < n {
				sc.bufs[e] = make([]float64, n)
			}
			xs[e] = nnp.Matrix{Rows: rowsPerElem[e], Cols: dim, Data: sc.bufs[e][:n]}
		}
		forEachSystem(nSys, workers, func() func(s int) {
			return func(s int) {
				var cursor [lattice.NumElements]int
				forSystemStates(tb, work[s], func(state int, vet encoding.VET) {
					for e := 0; e < lattice.NumElements; e++ {
						cursor[e] = spans[s][state][e].start
					}
					for i := 0; i < tb.NRegion; i++ {
						sp := vet[i]
						if !sp.IsAtom() {
							continue
						}
						e := int(sp)
						row := xs[e].Row(cursor[e])
						feature.ComputeSite(tb, fb.tab, vet, i, row)
						pot.NormalizeInPlace(row)
						cursor[e]++
					}
				})
			}
		})
		for e := range xs {
			if xs[e].Rows == 0 {
				outs[e] = nnp.NewMatrix(0, 1)
				continue
			}
			res := fusion.RunBigFusionWideF32(pot.Nets[e], xs[e], fb.arch, workers)
			outs[e] = res.Out
			modeled += res.Seconds
			totalRows += int64(xs[e].Rows)
		}
		fb.scratch.Put(sc) // fused inputs fully consumed by the kernel launches
	}
	fusionSW.Stop()

	// Scatter — per (system, state), sum per-element row outputs in the
	// exact order of Potential.RegionEnergy: element-ascending, site
	// order within an element, then the rows·ERef term. This reproduces
	// the uncached float addition sequence bit for bit.
	forEachState(tb, work, func(s, state int, vet encoding.VET) {
		total := 0.0
		for e := 0; e < lattice.NumElements; e++ {
			sp := spans[s][state][e]
			col := outs[e].Data
			for r := sp.start; r < sp.start+sp.count; r++ {
				total += col[r]
			}
			total += float64(sp.count) * pot.ERef[e]
		}
		if math.IsNaN(total) || math.IsInf(total, 0) {
			panic(&fault.CorruptionError{
				Subsystem: "evalserve",
				Detail:    fmt.Sprintf("fused region energy is %v (system %d, state %d)", total, s, state),
			})
		}
		if state == 0 {
			out[s].Initial = total
		} else {
			out[s].Final[state-1] = total
			out[s].Valid[state-1] = true
		}
	})

	fb.mu.Lock()
	fb.stats.Batches++
	fb.stats.Systems += int64(nSys)
	fb.stats.Rows += totalRows
	fb.stats.ModeledSeconds += modeled
	fb.mu.Unlock()
	return out
}

// forEachState visits, for every system, the initial state and each valid
// final state, with the VET temporarily mutated into that state (hops are
// applied and reverted exactly as Potential.HopEnergies does).
// Single-goroutine only (it mutates the VETs in place); the parallel
// feature pass instead runs forSystemStates per system on the owning
// worker.
func forEachState(tb *encoding.Tables, work []encoding.VET, visit func(s, state int, vet encoding.VET)) {
	for s, vet := range work {
		forSystemStates(tb, vet, func(state int, v encoding.VET) { visit(s, state, v) })
	}
}

// forSystemStates visits one system's states in canonical order — the
// initial VET, then each valid hop's final state — mutating and reverting
// the VET in place. The caller must own the VET exclusively.
//
// States are numbered by direction: 0 is the initial state and k+1 the
// final state of hop direction k. A closed direction (its 1NN target is
// another vacancy) is skipped and its number stays unused, so spans and
// the scatter can index Final/Valid by state−1 whatever the neighbourhood.
func forSystemStates(tb *encoding.Tables, vet encoding.VET, visit func(state int, vet encoding.VET)) {
	visit(0, vet)
	for k := 0; k < 8; k++ {
		if !vet[tb.NN1Index[k]].IsAtom() {
			continue
		}
		tb.ApplyHop(vet, k)
		visit(k+1, vet)
		tb.ApplyHop(vet, k)
	}
}

// forEachSystem runs visit(s) for every system index, spread over up to
// `workers` goroutines (inline when one suffices). mk builds one visit
// function per worker so each can close over private staging buffers and
// scratch. Systems write only rows they own, so scheduling never affects
// results.
func forEachSystem(n, workers int, mk func() func(s int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		visit := mk()
		for s := 0; s < n; s++ {
			visit(s)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visit := mk()
			for {
				s := int(cursor.Add(1)) - 1
				if s >= n {
					return
				}
				visit(s)
			}
		}()
	}
	wg.Wait()
}
