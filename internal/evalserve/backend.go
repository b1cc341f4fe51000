package evalserve

import (
	"fmt"
	"sync"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/telemetry"
)

// Result is one vacancy system's complete hop-energy evaluation: the
// exact f64 outputs of the 1+8 state evaluation (Sec. 3.4). It is what
// the cache stores, what a backend returns, and what the wire protocol
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

// Backend evaluates vacancy systems. Implementations must be safe for
// concurrent EvaluateBatch calls (the server runs up to Options.Workers
// at once, each from the goroutine of the caller that missed) and must
// produce, for every VET, outputs bit-identical to a direct
// kmc.Model.HopEnergies evaluation of the same environment.
type Backend interface {
	Tables() *encoding.Tables
	// EvaluateBatch is frozen in this shape because bench/ wraps it; the
	// server always passes a one-element slice.
	EvaluateBatch(vets []encoding.VET) []Result
}

// --- Generic model-pool backend ----------------------------------------

// ModelBackend adapts any kmc.Model factory (EAM or NNP) into a
// Backend: each EvaluateBatch borrows one model from a free list, building
// one when the list is empty, so there are never more models than there
// were concurrent callers. It brings the cache and the service front-end
// to non-NNP potentials.
type ModelBackend struct {
	tb      *encoding.Tables
	factory func() kmc.Model

	mu   sync.Mutex
	idle []kmc.Model
}

// NewModelBackend builds the first model here, for Tables(), and the rest
// on first use, so a GOMAXPROCS-sized concurrency bound costs a many-core
// host no setup time. size is the expected concurrency (the server's
// Options.Workers) and only sizes the free list; the signature is frozen
// because bench/ calls it.
func NewModelBackend(factory func() kmc.Model, size int) *ModelBackend {
	m := factory()
	mb := &ModelBackend{tb: m.Tables(), factory: factory, idle: make([]kmc.Model, 0, max(size, 1))}
	mb.idle = append(mb.idle, m)
	return mb
}

// Tables returns the shared encoding tables.
func (mb *ModelBackend) Tables() *encoding.Tables { return mb.tb }

func (mb *ModelBackend) borrow() kmc.Model {
	var m kmc.Model
	mb.mu.Lock()
	if n := len(mb.idle); n > 0 {
		m, mb.idle = mb.idle[n-1], mb.idle[:n-1]
	}
	mb.mu.Unlock()
	if m == nil {
		m = mb.factory()
	}
	return m
}

// EvaluateBatch evaluates each system through one pooled model.
func (mb *ModelBackend) EvaluateBatch(vets []encoding.VET) []Result {
	m := mb.borrow()
	defer func() {
		mb.mu.Lock()
		mb.idle = append(mb.idle, m)
		mb.mu.Unlock()
	}()
	out := make([]Result, len(vets))
	for i, vet := range vets {
		out[i].Initial, out[i].Final, out[i].Valid = m.HopEnergies(vet)
	}
	return out
}

// --- Fusion-batched NNP backend ----------------------------------------

// Precision is frozen for bench/, which passes F64 to NewFusionBackend.
type Precision int

// F64, the only precision, is frozen for bench/.
const F64 Precision = 0

// FusionStats counts the work of a FusionBackend (both fields frozen:
// bench/ derives fusion.rows_per_system from them).
type FusionStats struct {
	// Systems counts the vacancy systems evaluated; Rows the feature rows
	// actually forwarded through the network heads (1396 for a system
	// with eight open directions at 6.5 Å, against 2268 for nine full
	// region passes).
	Systems int64
	Rows    int64
}

// FusionBackend evaluates NNP vacancy systems through the incremental hop
// kernel (nnp.Potential.HopEnergies) with a pooled scratch, so a call
// costs no allocation beyond its result slice. The kernel is the one the
// direct path runs, so results are bit-identical to it however the
// systems are grouped into calls.
//
// Concurrency: EvaluateBatch is safe for concurrent callers; VETs are only
// read, a scratch is private to its call and only the stats are shared,
// under fb.mu. SetTelemetry must be called before the backend is shared.
type FusionBackend struct {
	pot *nnp.Potential
	tb  *encoding.Tables
	tab *feature.Table

	mu    sync.Mutex
	stats FusionStats

	scratch sync.Pool // *nnp.Scratch

	fusionPh *telemetry.Phase // nil when telemetry is off
}

// NewFusionBackend binds a trained potential to tables. The Precision
// argument is always F64.
func NewFusionBackend(pot *nnp.Potential, tb *encoding.Tables, _ Precision) *FusionBackend {
	fb := &FusionBackend{pot: pot, tb: tb, tab: feature.NewTable(pot.Desc, tb.Distances)}
	fb.scratch.New = func() any { return pot.NewScratch(tb) }
	return fb
}

// Tables returns the encoding tables.
func (fb *FusionBackend) Tables() *encoding.Tables { return fb.tb }

// SetTelemetry times every evaluation under evalserve/evaluate/fusion so
// the run summary shows what the hop kernel costs inside the service.
// Call before the backend is shared across callers.
func (fb *FusionBackend) SetTelemetry(set *telemetry.Set) {
	if set == nil {
		return
	}
	fb.fusionPh = set.Trace().PhaseAt(telemetry.PhaseEvalServe, telemetry.PhaseEvaluate).Child(telemetry.PhaseFusion)
}

// Stats snapshots the backend counters.
func (fb *FusionBackend) Stats() FusionStats {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.stats
}

// EvaluateBatch runs the 1+8 evaluation of every system, one after the
// other on the caller's goroutine. A corruption panic from the kernel
// propagates to the caller, where Server.evaluate turns it into an error.
func (fb *FusionBackend) EvaluateBatch(vets []encoding.VET) []Result {
	for _, vet := range vets {
		if len(vet) != fb.tb.NAll {
			panic(fmt.Sprintf("evalserve: VET length %d, want %d", len(vet), fb.tb.NAll))
		}
	}
	out := make([]Result, len(vets))
	var rows int64
	sp := fb.fusionPh.Start()
	sc := fb.scratch.Get().(*nnp.Scratch)
	for i, vet := range vets {
		r := &out[i]
		var n int
		r.Initial, r.Final, r.Valid, n = fb.pot.HopEnergies(fb.tb, fb.tab, vet, sc)
		rows += int64(n)
	}
	fb.scratch.Put(sc)
	sp.EndMsg("")

	fb.mu.Lock()
	fb.stats.Systems += int64(len(vets))
	fb.stats.Rows += rows
	fb.mu.Unlock()
	return out
}
