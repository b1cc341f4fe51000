package evalserve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/fusion"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/nnp"
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
// front-end to non-NNP potentials; spreading a batch over cores needs the
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
	// F64 forwards feature rows through the float64 heads — bit-identical
	// to nnp.Potential.HopEnergies on the direct path (it is the same
	// kernel), which is what the trajectory contract requires.
	F64 Precision = iota
	// F32 forwards them through heads quantised once at construction,
	// with float32 accumulation: the arithmetic of the real SW26010-pro.
	// Still deterministic, but NOT bit-identical to the f64 engine path:
	// only opt in when a cached run is never compared against an
	// uncached one.
	F32
)

// FusionStats counts the accelerator-side work of a FusionBackend.
type FusionStats struct {
	// Batches and Systems count EvaluateBatch calls and the systems they
	// carried; Rows counts the feature rows actually forwarded through
	// the network heads (1396 for a system with eight open directions at
	// 6.5 Å, against 2268 for nine full region passes).
	Batches int64
	Systems int64
	Rows    int64
}

// FusionBackend evaluates batches of NNP vacancy systems: the systems of
// a batch are spread over a goroutine pool and each runs through the
// incremental hop kernel (nnp.Potential.HopEnergies) with a pooled
// scratch, so a batch costs no allocation beyond its result slice. The
// kernel is the one the direct path runs, so F64 results are
// bit-identical to it for any batch width and worker count.
//
// Concurrency: EvaluateBatch is safe for concurrent callers (the server
// runs a bounded worker pool); VETs are only read, scratches are private
// to a goroutine and only the stats are shared, under fb.mu. SetTelemetry
// and SetWorkers must be called before the backend is shared.
type FusionBackend struct {
	pot     *nnp.Potential
	tb      *encoding.Tables
	tab     *feature.Table
	workers int // goroutines per batch; 0 = GOMAXPROCS

	mu    sync.Mutex
	stats FusionStats

	scratch sync.Pool // *nnp.Scratch

	fusionPh *telemetry.Phase // nil when telemetry is off
}

// NewFusionBackend binds a trained potential to tables. A batch is spread
// over fusion.WideWorkers(0) goroutines by default; tune with SetWorkers.
func NewFusionBackend(pot *nnp.Potential, tb *encoding.Tables, prec Precision) *FusionBackend {
	fb := &FusionBackend{pot: pot, tb: tb, tab: feature.NewTable(pot.Desc, tb.Distances)}
	var q *nnp.Potential32
	if prec == F32 {
		q = pot.Quantize()
	}
	fb.scratch.New = func() any { return pot.NewScratch(tb, q) }
	return fb
}

// SetWorkers fixes the goroutine count a batch is spread over
// (non-positive restores the GOMAXPROCS default). Worker count never
// changes results — only wall time. Call before the backend is shared
// across server workers.
func (fb *FusionBackend) SetWorkers(n int) { fb.workers = n }

// Tables returns the encoding tables.
func (fb *FusionBackend) Tables() *encoding.Tables { return fb.tb }

// SetTelemetry times every batch evaluation under evalserve/batch/fusion
// so the run summary shows where accelerator batches spend their wall
// time. Call before the backend is shared across workers.
func (fb *FusionBackend) SetTelemetry(set *telemetry.Set) {
	if set == nil {
		return
	}
	fb.fusionPh = set.Trace().PhaseAt(telemetry.PhaseEvalServe, telemetry.PhaseBatch).Child(telemetry.PhaseFusion)
}

// Stats snapshots the accelerator counters.
func (fb *FusionBackend) Stats() FusionStats {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.stats
}

// EvaluateBatch runs the 1+8 evaluation of every system in the batch.
func (fb *FusionBackend) EvaluateBatch(vets []encoding.VET) []Result {
	for _, vet := range vets {
		if len(vet) != fb.tb.NAll {
			panic(fmt.Sprintf("evalserve: VET length %d, want %d", len(vet), fb.tb.NAll))
		}
	}
	out := make([]Result, len(vets))
	var rows atomic.Int64
	sw := fb.fusionPh.Start()
	fb.forEachSystem(len(vets), func(s int, sc *nnp.Scratch) {
		r := &out[s]
		var n int
		r.Initial, r.Final, r.Valid, n = fb.pot.HopEnergies(fb.tb, fb.tab, vets[s], sc)
		rows.Add(int64(n))
	})
	sw.Stop()

	fb.mu.Lock()
	fb.stats.Batches++
	fb.stats.Systems += int64(len(vets))
	fb.stats.Rows += rows.Load()
	fb.mu.Unlock()
	return out
}

// forEachSystem runs visit(s, scratch) for every system index in [0, n),
// spread over up to fb.workers goroutines (inline when one suffices),
// each with a scratch borrowed from the pool. Systems are independent, so
// scheduling never affects results. A panic in a worker — the kernel's
// corruption tripwire — stops the hand-out and is re-raised on the
// caller's goroutine, where the server turns it into the submitters'
// error.
func (fb *FusionBackend) forEachSystem(n int, visit func(s int, sc *nnp.Scratch)) {
	var cursor atomic.Int64
	worker := func() {
		sc := fb.scratch.Get().(*nnp.Scratch)
		defer fb.scratch.Put(sc)
		for s := int(cursor.Add(1)) - 1; s < n; s = int(cursor.Add(1)) - 1 {
			visit(s, sc)
		}
	}
	workers := fusion.WideWorkers(fb.workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		worker()
		return
	}
	var wg sync.WaitGroup
	var failed atomic.Pointer[any]
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					failed.CompareAndSwap(nil, &p)
					cursor.Store(int64(n))
				}
			}()
			worker()
		}()
	}
	wg.Wait()
	if p := failed.Load(); p != nil {
		panic(*p)
	}
}
