package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sublattice"
	"tensorkmc/internal/traj"
)

// Span names, one per seam the benchmark wraps.
const (
	spanRep        = "rep"
	spanStep       = "kmc.step"
	spanEAM        = "eam.hop_energies"
	spanNNP        = "nnp.hop_energies"
	spanServe      = "evalserve.hop_energies"
	spanBackend    = "evalserve.backend"
	spanWire       = "wire.round_trip"
	spanSublattice = "sublattice.run"
	spanCommit     = "traj.commit"
	spanCheckpoint = "core.checkpoint"
)

// captureVETs is how many environments the model seam keeps for the
// direct-call probes and the fleet replay.
const captureVETs = 2048

// vetCapture copies the first max VETs that cross the model seam.
type vetCapture struct {
	mu   sync.Mutex
	max  int
	vets []encoding.VET
}

func (c *vetCapture) add(vet encoding.VET) {
	c.mu.Lock()
	if len(c.vets) < c.max {
		c.vets = append(c.vets, append(encoding.VET(nil), vet...))
	}
	c.mu.Unlock()
}

// timedModel is the benchmark's wrapper at the kmc.Model seam: every
// HopEnergies call becomes a span under the step (or run) that caused
// it. It changes no value that passes through.
type timedModel struct {
	inner  kmc.Model
	tr     *tracer
	name   string
	parent *atomic.Int64 // span the next call nests under
	cur    *atomic.Int64 // span of the call in flight (for the backend wrapper)
	vets   *vetCapture
}

func (m *timedModel) Tables() *encoding.Tables { return m.inner.Tables() }

func (m *timedModel) HopEnergies(vet encoding.VET) (float64, [8]float64, [8]bool) {
	m.vets.add(vet)
	id := m.tr.begin(m.name, int(m.parent.Load()))
	if m.cur != nil {
		m.cur.Store(int64(id))
	}
	initial, final, valid := m.inner.HopEnergies(vet)
	m.tr.end(id)
	return initial, final, valid
}

// timedBackend wraps the evalserve.Backend under the server: a span per
// EvaluateBatch, nested under the client call that is waiting for it
// (exact with one closed-loop client).
type timedBackend struct {
	inner   evalserve.Backend
	tr      *tracer
	cur     *atomic.Int64
	systems atomic.Int64
}

func (b *timedBackend) Tables() *encoding.Tables { return b.inner.Tables() }

func (b *timedBackend) EvaluateBatch(vets []encoding.VET) []evalserve.Result {
	id := b.tr.begin(spanBackend, int(b.cur.Load()))
	out := b.inner.EvaluateBatch(vets)
	b.tr.end(id)
	b.systems.Add(int64(len(vets)))
	return out
}

// tracedRun is what the traced repetition produced.
type tracedRun struct {
	tr    *tracer
	cfg   core.Config
	tb    *encoding.Tables
	root  int
	hops  int64
	sha   string
	image []byte
	box   *lattice.Box
	vets  *vetCapture
	stats kmc.Stats // serial engine counters
	// workload-specific results
	serve      *evalserve.Stats
	fusion     *evalserve.FusionStats
	backendSys int64
	fleetStats *evalserve.FleetStats
	wireBytes  int64
	srvHits    int64
	srvMisses  int64
	ranks      []sublattice.RankStats
	trajStats  *traj.Stats
	dir        string // scratch directory with the rep's log and checkpoint
}

func (t *tracedRun) wall() float64 { return float64(t.tr.spans[t.root].dur()) }

// layers is the per-layer result set of one child.
type layers struct {
	m     map[string]metric
	dists map[string]dist
}

func (l *layers) set(name string, v float64) {
	for _, defs := range [][]metricDef{perLayer, cleanCounters} {
		for _, d := range defs {
			if d.Name == name {
				l.m[name] = metric{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

// setDist records a timing distribution (nanosecond samples) as its
// p50/p99 metric pair in microseconds.
func (l *layers) setDist(p50Name, p99Name string, ns []float64) {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = v / 1e3
	}
	d := summarize(us, 99)
	l.set(p50Name, d.P50)
	l.dists[p50Name] = d
	if p99Name != "" {
		l.set(p99Name, d.Tail)
		l.dists[p99Name] = d
	}
}

// traceAndProbe runs the traced repetition, validates it against the
// untraced ones, derives the per-layer metrics from its spans and runs
// the direct-call probes. Per-layer numbers are withheld when the traced
// rep did not reproduce the untraced reps' hop count and final state.
func (e *runEnv) traceAndProbe(res *childResult, warmupS float64) {
	var ref *repResult
	for i := range res.Reps {
		if res.Reps[i].Err == "" {
			ref = &res.Reps[i]
			break
		}
	}
	if ref == nil {
		res.addCheck("trace_valid", false, "no successful untraced repetition to compare with")
		return
	}
	run, err := e.tracedRep()
	if err != nil {
		res.addCheck("trace_valid", false, "traced repetition failed: %v", err)
		return
	}
	res.TraceValid = run.hops == ref.Hops && run.sha == ref.SHA
	res.addCheck("trace_valid", res.TraceValid, "traced rep %d hops sha256 %.12s; untraced %d hops %.12s", run.hops, run.sha, ref.Hops, ref.SHA)
	if path := filepath.Join(e.out, "trace-"+e.wl.Name+".json"); run.tr.writeFile(path) == nil {
		res.TraceFile = path
	}
	if !res.TraceValid {
		return
	}

	l := &layers{m: map[string]metric{}, dists: map[string]dist{}}
	e.spanMetrics(l, run, res)
	e.probes(l, run, res)

	// Run-level bookkeeping every workload has.
	var newMs, closeMs, alloc, gcs, runS []float64
	for _, r := range res.Reps {
		if r.Err != "" || r.Hops == 0 {
			continue
		}
		newMs = append(newMs, r.NewS*1e3)
		closeMs = append(closeMs, r.CloseS*1e3)
		alloc = append(alloc, float64(r.AllocBytes)/1024/float64(r.Hops))
		gcs = append(gcs, float64(r.GCCycles))
		runS = append(runS, r.RunS)
	}
	l.set("core.new_ms", median(newMs))
	l.set("core.close_ms", median(closeMs))
	l.set("core.fleet_warmup_s", warmupS)
	l.set("core.alloc_kb_per_hop", median(alloc))
	l.set("core.gc_cycles", median(gcs))
	if m := median(runS); m > 0 {
		l.set("trace.overhead_share", (run.wall()/1e9-m)/m)
	}
	self := selfTimes(run.tr.spans)
	unattributed := float64(self[run.root]) / run.wall()
	l.set("trace.unattributed_share", unattributed)
	res.addCheck("trace_budget_adds_up", unattributed <= 0.05, "unattributed share %.4f (limit 0.05)", unattributed)

	res.Layers, res.Dists = l.m, l.dists
}

// tracedRep rebuilds the run from the layers' public constructors, with
// the benchmark's timed wrappers at each seam, and executes the same
// chunks Simulation.Run would.
func (e *runEnv) tracedRep() (run *tracedRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	dir, err := e.repDir()
	if err != nil {
		return nil, err
	}
	p, err := e.prepare(dir)
	if err != nil {
		return nil, err
	}
	if p.rec != nil {
		defer p.rec.Close()
	}
	cfg := p.cfg
	a, rcut, temp := defaults(cfg)
	tb := encoding.New(a, rcut)
	box := lattice.NewBox(cfg.Cells[0], cfg.Cells[1], cfg.Cells[2], a)
	lattice.FillRandomAlloy(box, cfg.CuFraction, cfg.VacancyFraction, rng.New(cfg.Seed))

	run = &tracedRun{tr: newTracer(), cfg: cfg, tb: tb, vets: &vetCapture{max: captureVETs}, dir: dir}
	run.tr.rep = 1
	parent, cur := &atomic.Int64{}, &atomic.Int64{}
	wrap := func(name string, m kmc.Model) *timedModel {
		return &timedModel{inner: m, tr: run.tr, name: name, parent: parent, cur: cur, vets: run.vets}
	}

	if cfg.Ranks[0]*cfg.Ranks[1]*cfg.Ranks[2] > 1 {
		return run, e.tracedParallel(run, cfg, box, tb, temp, parent, wrap)
	}

	// The model the serial engine calls, built the way core.New builds it.
	var model kmc.Model
	var after func()
	switch {
	case len(cfg.EvalFleet) > 0:
		pot := eam.New(eam.Default())
		fc, err := evalserve.DialFleet(cfg.EvalFleet, a, rcut, evalserve.FleetOptions{
			Seed:     cfg.Seed,
			Fallback: eam.NewFastRegionEvaluator(pot, tb),
		})
		if err != nil {
			return nil, err
		}
		defer fc.Close()
		hits0, misses0 := e.fleet.serverStats()
		bytes0 := e.fleet.wire.bytesIn.Load() + e.fleet.wire.bytesOut.Load()
		after = func() {
			st := fc.Stats()
			run.fleetStats = &st
			hits1, misses1 := e.fleet.serverStats()
			run.srvHits, run.srvMisses = hits1-hits0, misses1-misses0
			run.wireBytes = e.fleet.wire.bytesIn.Load() + e.fleet.wire.bytesOut.Load() - bytes0
		}
		model = wrap(spanWire, fc)
	case cfg.EvalCache > 0:
		fb := evalserve.NewFusionBackend(cfg.Net, tb, evalserve.F64)
		be := &timedBackend{inner: fb, tr: run.tr, cur: cur}
		srv := evalserve.New(be, evalserve.Options{Capacity: cfg.EvalCache}.WithDefaults())
		defer srv.Close()
		after = func() {
			st, fst := srv.Stats(), fb.Stats()
			run.serve, run.fusion, run.backendSys = &st, &fst, be.systems.Load()
		}
		model = wrap(spanServe, srv)
	case cfg.Potential == core.NNP:
		model = wrap(spanNNP, nnp.NewLatticeEvaluator(cfg.Net, tb))
	default:
		model = wrap(spanEAM, eam.NewFastRegionEvaluator(eam.New(eam.Default()), tb))
	}

	eng := kmc.NewEngine(box, model, temp, rng.New(cfg.Seed).Split(1), kmc.Options{})
	snapshot := func() *core.Checkpoint {
		return &core.Checkpoint{
			Box: box.Clone(), Time: eng.Time(), Hops: eng.Steps(),
			HasRNG: true, RNG: eng.RNG().State(), Vacancies: eng.VacancyCenters(),
		}
	}
	rec := p.rec
	if rec != nil {
		// What core.New does when it attaches a fresh log: begin record,
		// base snapshot, durable commit. Set-up, so outside the rep span.
		if err := rec.Begin(0, 0); err != nil {
			return nil, err
		}
		if err := rec.Snapshot(0, 0, func(path string) error { return snapshot().SaveFile(path) }); err != nil {
			return nil, err
		}
		if err := rec.Commit(0, 0); err != nil {
			return nil, err
		}
	}

	run.root = run.tr.begin(spanRep, -1)
	every := 0.0
	if cfg.CheckpointPath != "" {
		every = cfg.CheckpointEvery
	}
	var chunkErr error
	forEachChunk(e.duration, every, func(chunk float64) {
		if chunkErr != nil {
			return
		}
		limit := eng.Time() + chunk
		for eng.Time() < limit {
			id := run.tr.begin(spanStep, run.root)
			parent.Store(int64(id))
			ev, ok := eng.Step(limit)
			run.tr.end(id)
			if !ok {
				if rec != nil && eng.Time() >= limit {
					rec.Clip(limit)
				}
				break
			}
			if rec != nil {
				rec.Hop(ev.Slot, ev.Direction, ev.DeltaT)
			}
		}
		if rec != nil {
			id := run.tr.begin(spanCommit, run.root)
			chunkErr = rec.Commit(eng.Steps(), eng.Time())
			run.tr.end(id)
		}
		if cfg.CheckpointPath != "" && chunkErr == nil {
			id := run.tr.begin(spanCheckpoint, run.root)
			chunkErr = snapshot().SaveFile(cfg.CheckpointPath)
			run.tr.end(id)
		}
	})
	if chunkErr != nil {
		return nil, chunkErr
	}
	var image bytes.Buffer
	if err := snapshot().Save(&image); err != nil {
		return nil, err
	}
	run.tr.end(run.root)

	run.hops, run.stats, run.box = eng.Steps(), eng.Stats(), box
	run.setImage(image.Bytes())
	if rec != nil {
		st := rec.Stats()
		run.trajStats = &st
	}
	if after != nil {
		after()
	}
	return run, nil
}

func (t *tracedRun) setImage(image []byte) {
	t.image, t.sha = image, sha256Hex(image)
}

// tracedParallel is the traced repetition of a sublattice run: one span
// around sublattice.Run with every rank's model calls nested under it.
func (e *runEnv) tracedParallel(run *tracedRun, cfg core.Config, box *lattice.Box, tb *encoding.Tables, temp float64,
	parent *atomic.Int64, wrap func(string, kmc.Model) *timedModel) error {
	pot := eam.New(eam.Default())
	factory := func() kmc.Model {
		m := wrap(spanEAM, eam.NewFastRegionEvaluator(pot, tb))
		m.cur = nil // ranks run concurrently; there is no single call in flight
		return m
	}
	const segment = 1 // a fresh Simulation's first Run is segment 1
	scfg := sublattice.Config{
		PX: cfg.Ranks[0], PY: cfg.Ranks[1], PZ: cfg.Ranks[2],
		Temperature: temp,
		TStop:       cfg.TStop,
		Seed:        cfg.Seed + segment,
	}
	run.root = run.tr.begin(spanRep, -1)
	id := run.tr.begin(spanSublattice, run.root)
	parent.Store(int64(id))
	out, err := sublattice.Run(box, scfg, e.duration, factory)
	run.tr.end(id)
	if err != nil {
		return err
	}
	for _, st := range out.Stats {
		run.hops += st.Hops
	}
	run.ranks, run.box = out.Stats, out.Box
	var image bytes.Buffer
	ck := &core.Checkpoint{Box: out.Box.Clone(), Time: out.Time, Hops: run.hops, Segment: segment}
	if err := ck.Save(&image); err != nil {
		return err
	}
	run.tr.end(run.root)
	run.setImage(image.Bytes())
	return nil
}

// spanMetrics derives the share and latency metrics from the traced
// rep's spans and the exact counters collected beside them.
func (e *runEnv) spanMetrics(l *layers, run *tracedRun, res *childResult) {
	spans := run.tr.spans
	wall := run.wall()
	self := selfByName(spans)
	hops := float64(run.hops)
	total := func(name string) float64 { return sum(durations(spans, name)) }

	if run.ranks != nil {
		ranks := float64(len(run.ranks))
		var maxHops, discarded, sent float64
		for _, st := range run.ranks {
			if float64(st.Hops) > maxHops {
				maxHops = float64(st.Hops)
			}
			discarded += float64(st.Discarded)
			sent += float64(st.Sent)
		}
		l.set("sublattice.imbalance", maxHops/(hops/ranks))
		l.set("sublattice.discard_ratio", discarded/(hops+discarded))
		l.set("sublattice.sent_per_hop", sent/hops)
		rankSeconds := ranks * total(spanSublattice)
		model := total(spanEAM)
		l.set("sublattice.model_share", model/rankSeconds)
		l.set("sublattice.non_model_share", 1-model/rankSeconds)
		l.set("eam.us_per_call", mean(durations(spans, spanEAM))/1e3)
		l.set("eam.share", model/rankSeconds)
		return
	}

	steps := durations(spans, spanStep)
	l.setDist("kmc.step_us_p50", "kmc.step_us_p99", steps)
	l.set("kmc.self_us_per_hop", float64(self[spanStep])/1e3/hops)
	l.set("kmc.self_share", float64(self[spanStep])/wall)
	l.set("kmc.refreshes_per_hop", float64(run.stats.Refreshes)/hops)
	l.set("kmc.refills_per_hop", float64(run.stats.Refills)/hops)
	l.set("kmc.patches_per_hop", float64(run.stats.Patches)/hops)

	if d := durations(spans, spanEAM); len(d) > 0 {
		l.set("eam.us_per_call", mean(d)/1e3)
		l.set("eam.share", sum(d)/wall)
	}
	if d := durations(spans, spanNNP); len(d) > 0 {
		l.set("nnp.us_per_call", mean(d)/1e3)
		l.set("nnp.share", sum(d)/wall)
	}
	if run.serve != nil {
		hit, miss, inside := classify(spans)
		l.set("evalserve.hit_rate", run.serve.HitRate())
		l.set("evalserve.batch_occupancy_mean", run.serve.Occupancy())
		l.setDist("evalserve.hit_us_p50", "evalserve.hit_us_p99", hit)
		l.setDist("evalserve.miss_us_p50", "", miss)
		if len(miss) > 0 {
			l.set("evalserve.miss_overhead_us", (mean(miss)-mean(inside))/1e3)
		}
		if run.backendSys > 0 {
			l.set("evalserve.backend_us_per_system", total(spanBackend)/1e3/float64(run.backendSys))
		}
		l.set("evalserve.backend_share", total(spanBackend)/wall)
		l.set("evalserve.hit_path_share", sum(hit)/wall)
		if run.fusion.Systems > 0 {
			l.set("fusion.rows_per_system", float64(run.fusion.Rows)/float64(run.fusion.Systems))
		}
	}
	if run.fleetStats != nil {
		calls := durations(spans, spanWire)
		l.set("wire.requests_per_hop", float64(len(calls))/hops)
		l.set("wire.bytes_per_request", float64(run.wireBytes)/float64(len(calls)))
		l.setDist("wire.rtt_us_p50", "wire.rtt_us_p99", calls)
		l.set("wire.share", sum(calls)/wall)
		if n := run.srvHits + run.srvMisses; n > 0 {
			l.set("fleet.server_hit_rate", float64(run.srvHits)/float64(n))
		}
		l.set("fleet.retries", float64(run.fleetStats.Retries))
		l.set("fleet.failovers", float64(run.fleetStats.Failovers))
		l.set("fleet.fallbacks", float64(run.fleetStats.Fallbacks))
		clean := run.fleetStats.Retries+run.fleetStats.Failovers+run.fleetStats.Fallbacks == 0
		res.addCheck("fleet_clean", clean, "retries=%d failovers=%d fallbacks=%d",
			run.fleetStats.Retries, run.fleetStats.Failovers, run.fleetStats.Fallbacks)
	}
	if run.trajStats != nil {
		l.set("core.checkpoints", float64(len(durations(spans, spanCheckpoint))))
		l.set("core.checkpoint_share", (total(spanCommit)+total(spanCheckpoint))/wall)
		l.set("traj.events", float64(run.trajStats.Events))
		if run.trajStats.Events > 0 {
			l.set("traj.bytes_per_event", float64(run.trajStats.Bytes)/float64(run.trajStats.Events))
		}
	}
}

// classify splits the timed Server.HopEnergies calls into hits and
// misses — a call is a miss iff the backend ran during it — and returns
// their durations, plus the backend time inside each miss.
func classify(spans []span) (hit, miss, inside []float64) {
	backend := map[int]float64{}
	for _, s := range spans {
		if s.Name == spanBackend {
			backend[s.Parent] += float64(s.dur())
		}
	}
	for i, s := range spans {
		if s.Name != spanServe {
			continue
		}
		if b, ok := backend[i]; ok {
			miss = append(miss, float64(s.dur()))
			inside = append(inside, b)
		} else {
			hit = append(hit, float64(s.dur()))
		}
	}
	return hit, miss, inside
}

// perCall times fn over n calls and returns nanoseconds per call: the
// median of five such loops, so one preempted loop does not move it.
func perCall(n int, fn func(i int)) float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		runs = append(runs, float64(time.Since(t0))/float64(n))
	}
	return median(runs)
}
