// Package evalserve is the shared NNP evaluation service: any number of
// KMC engines — the serial engine, sublattice ranks, or remote clients on
// the wire protocol — submit vacancy systems and receive the exact 1+8
// hop energies of Sec. 3.4.
//
// A request goes cache → flight → slot → backend. (1) A sharded LRU cache
// keyed on the VET local environment packed at four sites per byte — the
// paper's vacancy cache (Sec. 3.2) generalized across vacancies and
// across engines — answers what has been seen. (2) Concurrent misses of
// one environment share a single flight: the first caller owns it, the
// rest wait for its answer. (3) The owner takes one of Options.Workers
// slots — the service's one concurrency bound and its backpressure — and
// (4) evaluates its system through the backend on its own goroutine.
// There is no queue, worker pool or batcher: on this hardware nothing
// wins wide (DESIGN.md §10.3).
//
// The hard contract, inherited from the repo's trajectory tests: cached
// and uncached runs must be bit-identical. Three mechanisms enforce it —
// the cache stores the exact f64 outputs, every hit re-verifies the full
// packed environment (hash equality is never trusted alone), and the
// f64 NNP backend runs the very kernel the uncached path runs (see
// FusionBackend).
package evalserve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/telemetry"
)

// Options tune the service; zero values take the defaults.
type Options struct {
	// Capacity is the total cache size in entries (default 1<<15), split
	// evenly over cacheShards shards.
	Capacity int
	// Workers bounds how many backend evaluations run at once; further
	// misses block until a slot frees — the service's backpressure
	// (default runtime.GOMAXPROCS(0)). Frozen with WithDefaults: bench/
	// sizes a model pool from it.
	Workers int
	// Telemetry, if non-nil, exports the service counters as registry
	// metrics, times every request under the evalserve/serve phase and
	// backend evaluations under evalserve/evaluate. The registry metrics
	// are function-backed reads of the very same atomics and shard
	// counters that Stats() snapshots, so /metrics and Stats() can never
	// disagree about a value — they are one storage location rendered
	// two ways.
	Telemetry *telemetry.Set
}

// WithDefaults returns a copy with every zero field resolved to its
// default — for callers that need the effective values (e.g. to size a
// backend pool to the concurrency bound).
func (o Options) WithDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 1 << 15
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats is a point-in-time account of the service.
type Stats struct {
	// Shards holds every cache shard's counters in shard order; the
	// embedded aggregate sums them.
	Shards []CacheStats
	CacheStats
	// Batches counts backend evaluations, one system each (the name is
	// tkmc_eval_batches_total's); Deduped the requests answered by
	// another caller's in-flight evaluation of the same environment.
	Batches int64
	Deduped int64
}

// HitRate returns the cache hit fraction (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Occupancy returns the systems per backend evaluation: 1 once anything
// was evaluated. Frozen: bench/ reads it as evalserve.batch_occupancy_mean.
func (s Stats) Occupancy() float64 {
	if s.Batches == 0 {
		return 0
	}
	return 1
}

// String renders the one-line operations summary.
func (s Stats) String() string {
	return fmt.Sprintf("evalserve: %.1f%% hit rate (%d hits, %d misses, %d evictions), %d evaluations, %d deduped",
		100*s.HitRate(), s.Hits, s.Misses, s.Evictions, s.Batches, s.Deduped)
}

// flight is one environment's in-progress evaluation: concurrent misses
// of the same environment wait on the first caller's backend call instead
// of repeating it; key is the environment's packed form, which becomes
// the cache entry's. The owner writes res and err, then closes done.
type flight struct {
	hash uint64
	key  []byte
	done chan struct{}
	res  Result
	err  error
}

var (
	errClosed = errors.New("evalserve: server closed")
	// errAbandoned is what joiners see when the owner's backend call
	// panicked past evaluate — a fleet-backed model's transport error,
	// which the engine layers recover and retry.
	errAbandoned = errors.New("evalserve: evaluation abandoned by a backend panic")
)

// Server is the evaluation service. It implements kmc.Model (Tables +
// HopEnergies) and is safe for any number of concurrent callers, so a
// single Server can be handed to every engine in a process — the serial
// engine, all sublattice ranks, and the TCP front-end at once.
type Server struct {
	be    Backend
	tb    *encoding.Tables
	cache *Cache

	slots    chan struct{} // one token per running backend evaluation
	mu       sync.RWMutex  // orders inflight.Add against Close's Wait
	closed   atomic.Bool
	inflight sync.WaitGroup // misses being resolved

	flightMu sync.Mutex
	flights  map[uint64][]*flight

	batches atomic.Int64
	deduped atomic.Int64

	servePh, evalPh *telemetry.Phase // nil when telemetry is off
}

// New builds a service over the backend. It starts no goroutine: every
// evaluation runs on the goroutine of the caller that missed.
func New(be Backend, opts Options) *Server {
	opts = opts.WithDefaults()
	s := &Server{
		be:      be,
		tb:      be.Tables(),
		cache:   NewCache(opts.Capacity, cacheShards),
		slots:   make(chan struct{}, opts.Workers),
		flights: map[uint64][]*flight{},
	}
	s.bindTelemetry(opts.Telemetry)
	return s
}

// bindTelemetry registers the service counters as function-backed
// registry metrics reading the same atomics Stats() snapshots, wires
// the evaluation phase, and hands the cache the flight recorder for
// sampled eviction events.
func (s *Server) bindTelemetry(set *telemetry.Set) {
	if set == nil {
		return
	}
	reg := set.Reg()
	agg := func(pick func(CacheStats) int64) func() int64 {
		return func() int64 {
			var total int64
			for _, sh := range s.cache.Stats() {
				total += pick(sh)
			}
			return total
		}
	}
	reg.CounterFunc(telemetry.MetricCacheHits,
		"Evaluation cache lookups answered from a shard.",
		agg(func(c CacheStats) int64 { return c.Hits }))
	reg.CounterFunc(telemetry.MetricCacheMisses,
		"Evaluation cache lookups that fell through to an evaluation.",
		agg(func(c CacheStats) int64 { return c.Misses }))
	reg.CounterFunc(telemetry.MetricCacheEvictions,
		"Evaluation cache entries displaced by the LRU policy.",
		agg(func(c CacheStats) int64 { return c.Evictions }))
	reg.CounterFunc(telemetry.MetricCacheCollisions,
		"Hash matches vetoed by the full-environment compare.",
		agg(func(c CacheStats) int64 { return c.Collisions }))
	reg.GaugeFunc(telemetry.MetricCacheEntries,
		"Evaluation cache resident entries.",
		func() float64 {
			var total int64
			for _, sh := range s.cache.Stats() {
				total += int64(sh.Entries)
			}
			return float64(total)
		})
	reg.CounterFunc(telemetry.MetricEvalBatches,
		"Backend evaluations run, one vacancy system each.",
		s.batches.Load)
	reg.CounterFunc(telemetry.MetricEvalDeduped,
		"Requests answered by another caller's in-flight evaluation.",
		s.deduped.Load)
	s.servePh = set.Trace().PhaseAt(telemetry.PhaseEvalServe, telemetry.PhaseServe)
	s.evalPh = set.Trace().PhaseAt(telemetry.PhaseEvalServe, telemetry.PhaseEvaluate)
	s.cache.setJournal(set.Events())
}

// Tables returns the shared encoding tables (kmc.Model interface).
func (s *Server) Tables() *encoding.Tables { return s.tb }

// HopEnergies resolves one vacancy system through the cache → flight →
// slot → backend pipeline (kmc.Model interface). Corruption detected
// during evaluation re-panics in the caller's goroutine as
// *fault.CorruptionError, exactly like a direct model evaluation, so
// engine-layer recovery is unchanged.
func (s *Server) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	res, err := s.Evaluate(vet)
	if err != nil {
		var ce *fault.CorruptionError
		if errors.As(err, &ce) {
			panic(ce)
		}
		panic(err)
	}
	return res.Initial, res.Final, res.Valid
}

// Evaluate resolves one vacancy system, returning corruption as an error
// instead of panicking.
func (s *Server) Evaluate(vet encoding.VET) (Result, error) {
	return s.EvaluateTraced(vet, telemetry.Context{})
}

// EvaluateTraced is Evaluate carrying a distributed-trace context — the
// server leg of a cross-process trace. With live telemetry every request
// is one evalserve/serve span (cache hit, flight dedup, or evaluated
// miss) and a flight owner's work after its slot wait one
// evalserve/evaluate span under it; with a valid context both also
// journal themselves. An invalid context makes this exactly Evaluate.
// A VET that does not pack (a species above Vacancy) is a
// *fault.CorruptionError naming the site.
func (s *Server) EvaluateTraced(vet encoding.VET, tctx telemetry.Context) (Result, error) {
	// The request's packed key, on this goroutine's stack at the usual
	// cutoffs, serves the hit check, the flight match and the miss's Put.
	var buf [encoding.KeyStack]byte
	key, err := s.tb.PackEnv(buf[:0], vet)
	if err != nil {
		return Result{}, corruptVET(err)
	}
	return s.serve(key, vet, tctx)
}

// corruptVET types a VET that does not pack as corruption: no engine
// writes a species above Vacancy, so one is damaged state, and no other
// node or path would answer it better.
func corruptVET(err error) error {
	return &fault.CorruptionError{Subsystem: "evalserve", Detail: err.Error()}
}

// serve resolves one request by its packed key, which must be valid
// (encoding.Tables.CheckKey) and is not kept: a hit is one hash of the
// key and one lookup. vet is the key's VET, or nil when the request came
// packed off the wire — then a miss unpacks the key to evaluate it.
func (s *Server) serve(key []byte, vet encoding.VET, tctx telemetry.Context) (Result, error) {
	if s.closed.Load() {
		return Result{}, errClosed
	}
	sp := s.servePh.StartUnder(tctx)
	hash := encoding.KeyHash(key)
	if res, ok := s.cache.Get(hash, key); ok {
		sp.EndMsg("cache=hit")
		return res, nil
	}
	// A miss is work Close waits for, whether it ends up owning a flight
	// or joining one.
	s.mu.RLock()
	if s.closed.Load() {
		s.mu.RUnlock()
		sp.EndMsg("error=closed")
		return Result{}, errClosed
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	defer s.inflight.Done()

	f, owner := s.joinFlight(hash, key)
	if owner {
		s.resolve(f, vet, sp.Context())
		sp.EndMsg("cache=miss")
	} else {
		<-f.done
		sp.EndMsg("cache=miss dedup=inflight")
	}
	return f.res, f.err
}

// joinFlight returns the in-progress flight of the environment if one
// exists; otherwise it registers a new one, owned by the caller, holding
// a copy of the environment's packed key.
func (s *Server) joinFlight(hash uint64, key []byte) (f *flight, owner bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	for _, f := range s.flights[hash] {
		if bytes.Equal(f.key, key) {
			s.deduped.Add(1)
			return f, false
		}
	}
	f = &flight{hash: hash, key: bytes.Clone(key), done: make(chan struct{}), err: errAbandoned}
	s.flights[hash] = append(s.flights[hash], f)
	return f, true
}

// completeFlight deregisters the flight and releases everyone waiting on
// it. On success the cache entry must already be in place: a miss
// arriving after deregistration registers a new flight, and its owner's
// second-chance lookup resolves it from the cache.
func (s *Server) completeFlight(f *flight) {
	s.flightMu.Lock()
	bucket := s.flights[f.hash]
	for i, g := range bucket {
		if g == f {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.flights, f.hash)
	} else {
		s.flights[f.hash] = bucket
	}
	s.flightMu.Unlock()
	close(f.done)
}

// resolve is the flight owner's path: take one of the Workers slots,
// re-check the cache, evaluate the system (unpacked from the flight's
// key when vet is nil) on this goroutine, store the
// exact outputs and complete the flight (also when the backend panics
// through, so joiners fail with errAbandoned instead of waiting forever).
func (s *Server) resolve(f *flight, vet encoding.VET, tctx telemetry.Context) {
	defer s.completeFlight(f)
	queued := time.Now()
	s.slots <- struct{}{} // blocks while Workers evaluations run: backpressure
	defer func() { <-s.slots }()
	wait := time.Since(queued)

	// One span covers the owner's work after the slot wait: the
	// second-chance lookup and the evaluation. It — and the slot wait
	// hanging under it — is journalled before the flight completes: a
	// caller that flushes the journal on receiving its answer must find
	// both.
	sp := s.evalPh.StartUnder(tctx)
	sp.Event("queue-wait %.3fms", float64(wait.Microseconds())/1e3)
	// Second chance: an entry may have landed between the caller's miss
	// and its flight registration.
	if res, ok := s.cache.peek(f.hash, f.key); ok {
		sp.EndMsg("cache=hit")
		f.res, f.err = res, nil
		return
	}
	if vet == nil {
		var err error
		if vet, err = s.tb.UnpackEnv(f.key); err != nil {
			sp.EndMsg("error=%v", err)
			f.err = err
			return
		}
	}
	res, err := s.evaluate(vet)
	if err != nil {
		sp.EndMsg("error=%v", err)
		f.err = err
		return
	}
	sp.EndMsg("")
	s.cache.Put(f.hash, f.key, res)
	s.batches.Add(1)
	f.res, f.err = res, nil
}

// evaluate runs the backend on one system, converting a corruption
// tripwire panic into an error so a poisoned evaluation fails its callers
// the same way on the wire and in process.
func (s *Server) evaluate(vet encoding.VET) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ce, ok := p.(*fault.CorruptionError); ok {
				err = ce
				return
			}
			panic(p)
		}
	}()
	results := s.be.EvaluateBatch([]encoding.VET{vet})
	if len(results) != 1 {
		return Result{}, fmt.Errorf("evalserve: backend returned %d results for 1 system", len(results))
	}
	return results[0], nil
}

// Close stops accepting work and waits for every miss being resolved —
// running evaluations, callers queued for a slot, and their joiners — to
// be answered. It is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed.Store(true)
	s.mu.Unlock()
	s.inflight.Wait()
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Shards:  s.cache.Stats(),
		Batches: s.batches.Load(),
		Deduped: s.deduped.Load(),
	}
	for _, sh := range st.Shards {
		st.CacheStats.add(sh)
	}
	return st
}
