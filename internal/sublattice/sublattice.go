// Package sublattice implements the parallel AKMC method of Sec. 2.2: a
// spatial domain decomposition over message-passing ranks combined with
// the Shim–Amar synchronous sublattice algorithm. Each rank's domain is
// split into 2×2×2 sectors; all ranks process the same sector octant
// simultaneously for a quantum t_stop, so concurrently active vacancies
// on different ranks are separated by at least half a domain and
// boundary hops can never conflict. Ghost regions are synchronised
// between sectors (the paper's "sites in the boundary region must be
// updated in advance").
//
// The method is semirigorous (Shim & Amar 2005): within one sector
// window, boundary information is frozen, an approximation controlled by
// t_stop. The paper's scalability runs use the strict
// t_stop = 2×10⁻⁸ s; the same default is used here.
package sublattice

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tensorkmc/internal/fault"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/mpi"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/telemetry"
)

// DefaultTStop is the paper's strict synchronisation interval (seconds).
const DefaultTStop = 2e-8

// Config describes a parallel run.
type Config struct {
	// PX, PY, PZ are ranks per axis; each must divide the box's cell
	// count on that axis.
	PX, PY, PZ int
	// Temperature in kelvin.
	Temperature float64
	// TStop is the sector synchronisation quantum in seconds
	// (DefaultTStop if zero).
	TStop float64
	// Seed drives all per-rank streams.
	Seed uint64
	// ExchangeTimeout bounds each sector-synchronisation collective.
	// Zero blocks forever (the pre-fault-tolerance behaviour); with a
	// timeout set, a rank that fails to reach the exchange makes the
	// whole sweep abort with an error naming the stalled ranks, so the
	// caller can recover from the last-good checkpoint.
	ExchangeTimeout time.Duration
	// Chaos, if non-nil, is installed on the run's rank fabric to hold
	// ranks dead under test control.
	Chaos *mpi.Chaos
	// Telemetry, if non-nil, instruments the sweep: rank hops bump
	// tkmc_step_total, sector-window KMC and sector exchanges get
	// run/segment/{sector,exchange} spans (summed over ranks, so their
	// totals are rank-seconds), and the rank fabric exports per-rank
	// send/recv/timeout counters. Purely observational: the trajectory
	// is bit-identical with telemetry on or off.
	Telemetry *telemetry.Set
}

// Ranks returns the world size.
func (c Config) Ranks() int { return c.PX * c.PY * c.PZ }

// SiteChange is one occupancy update broadcast at sector synchronisation.
type SiteChange struct {
	Site lattice.Vec // canonical global coordinates
	New  lattice.Species
}

// RankStats reports one rank's work counters.
type RankStats struct {
	Hops      int64 // executed hops
	Discarded int64 // events rejected by the t_stop window
	Sent      int64 // site changes broadcast
	Refills   int64 // VET rebuilds for a new or moved centre, by translation or lattice walk
	MemoHits  int64 // propensity recomputations the cache's memo answered without a model call
}

// Result is the outcome of a parallel run.
type Result struct {
	// Box is the reconstructed global lattice after the run.
	Box *lattice.Box
	// Time is the simulated duration.
	Time float64
	// Stats is indexed by rank.
	Stats []RankStats
}

// Run executes a parallel AKMC simulation of `duration` seconds over the
// given global box (which is not modified; the evolved lattice is
// returned in the Result). factory must return a fresh kmc.Model per
// call: one per rank, and the helpers of a shared pool that evaluate a
// rank's dirty vacancy systems beside it (at most GOMAXPROCS of them,
// made on first use).
//
// With Config.ExchangeTimeout set, a rank that stalls (dies, hangs, or
// is held dead by the Chaos fixture) makes Run return an error naming the
// stalled ranks instead of hanging; the global box is then unmodified
// and the caller can resume from its last-good checkpoint. A rank that
// stops on a corruption or transport error aborts the sweep, timeout or
// not: Run returns that error, naming the rank.
func Run(box *lattice.Box, cfg Config, duration float64, factory func() kmc.Model) (*Result, error) {
	if cfg.TStop == 0 {
		cfg.TStop = DefaultTStop
	}
	model := factory()
	validate(box, cfg, model)
	// The model validate read is the pool's first helper.
	pool := &helperPool{factory: factory, idle: []kmc.Model{model}, made: 1, max: runtime.GOMAXPROCS(0)}
	nRanks := cfg.Ranks()
	results := make([]*rankState, nRanks)
	errs := make([]error, nRanks)
	w := mpi.NewWorld(nRanks)
	if cfg.Chaos != nil {
		w.SetChaos(cfg.Chaos)
	}
	if cfg.Telemetry != nil {
		w.SetTelemetry(cfg.Telemetry.Reg(), cfg.Telemetry.Events())
	}
	// raised[r] is the typed error rank r stopped on; errs[r] what its
	// sweep returned.
	raised := make([]error, nRanks)
	mpi.RunWorld(w, func(c *mpi.Comm) {
		// A corruption tripwire (NaN propensity, non-finite energy) fires
		// as a typed panic deep in the rate kernel; convert it into this
		// rank's error so the sweep aborts with the diagnostic instead of
		// crashing the process, and abort the world with it so that peers
		// blocked on this rank's exchange return instead of waiting for it.
		defer func() {
			if p := recover(); p != nil {
				switch p.(type) {
				case *fault.CorruptionError, *fault.TransportError:
					// A transport error is remote evaluation failed past
					// its retry budget: retryable — the supervisor
					// replays the segment.
					err := p.(error)
					raised[c.Rank()] = err
					w.Abort(err)
				default:
					panic(p)
				}
			}
		}()
		r := newRank(c, box, cfg, factory(), pool)
		errs[c.Rank()] = r.run(duration)
		results[c.Rank()] = r
	})
	// A rank's typed error reaches its peers as their exchange error, and
	// a peer may stall out first; report the rank that raised it, a
	// corruption before anything else, so the supervisor can classify the
	// failure as non-retryable.
	for rank, err := range raised {
		if _, ok := err.(*fault.CorruptionError); ok {
			return nil, fmt.Errorf("sublattice: sweep aborted on rank %d: %w", rank, err)
		}
	}
	for _, list := range [][]error{raised, errs} {
		for rank, err := range list {
			if err != nil {
				return nil, fmt.Errorf("sublattice: sweep aborted on rank %d: %w", rank, err)
			}
		}
	}

	out := &Result{Box: lattice.NewBox(box.Nx, box.Ny, box.Nz, box.A), Time: duration, Stats: make([]RankStats, nRanks)}
	for i, r := range results {
		out.Stats[i] = r.rankStats()
		r.dom.ForEachLocal(func(v lattice.Vec, idx int) {
			out.Box.Set(v, r.dom.Types()[idx])
		})
	}
	return out, nil
}

func validate(box *lattice.Box, cfg Config, model kmc.Model) {
	tb := model.Tables()
	if cfg.PX <= 0 || cfg.PY <= 0 || cfg.PZ <= 0 {
		panic(fmt.Sprintf("sublattice: invalid rank grid %dx%dx%d", cfg.PX, cfg.PY, cfg.PZ))
	}
	if box.Nx%cfg.PX != 0 || box.Ny%cfg.PY != 0 || box.Nz%cfg.PZ != 0 {
		panic("sublattice: rank grid does not divide the box")
	}
	g := tb.MaxExtent
	for _, a := range []struct{ n, p int }{{box.Nx, cfg.PX}, {box.Ny, cfg.PY}, {box.Nz, cfg.PZ}} {
		local := 2 * a.n / a.p
		if local < 2 {
			panic("sublattice: domain thinner than one cell")
		}
		if g > 2*a.n {
			panic("sublattice: ghost width exceeds the periodic box")
		}
	}
	if cfg.TStop <= 0 {
		panic("sublattice: non-positive t_stop")
	}
}

type rankState struct {
	comm *mpi.Comm
	cfg  Config
	rnd  *rng.Stream

	global *lattice.Box // geometry only (canonical indexing/wrapping)
	dom    *lattice.Domain
	cache  *kmc.Cache // systems centred in the local region (raw == canonical)

	// Scratch of runSector: the slots in the active sector, those of them
	// that are dirty, and those with a nonzero propensity; the helpers
	// lent for one batch.
	members, dirty, active []int
	pool                   *helperPool
	helpers                []kmc.Model

	changes []SiteChange
	stats   RankStats

	// Telemetry handles (nil-safe no-ops when uninstrumented). All
	// ranks share the same nodes; the atomics make concurrent
	// accumulation safe.
	hopCtr     *telemetry.Counter
	sectorPh   *telemetry.Phase
	exchangePh *telemetry.Phase
}

// rankStats returns the rank's counters, its cache's included.
func (r *rankState) rankStats() RankStats {
	st, cs := r.stats, r.cache.Stats
	st.Refills, st.MemoHits = cs.Refills, cs.MemoHits
	return st
}

func newRank(c *mpi.Comm, box *lattice.Box, cfg Config, model kmc.Model, pool *helperPool) *rankState {
	tb := model.Tables()
	rank := c.Rank()
	px := rank % cfg.PX
	py := (rank / cfg.PX) % cfg.PY
	pz := rank / (cfg.PX * cfg.PY)
	sx, sy, sz := 2*box.Nx/cfg.PX, 2*box.Ny/cfg.PY, 2*box.Nz/cfg.PZ
	origin := lattice.Vec{X: px * sx, Y: py * sy, Z: pz * sz}
	dom := lattice.NewDomain(origin, lattice.Vec{X: sx, Y: sy, Z: sz}, tb.MaxExtent, box.A)

	r := &rankState{
		comm:   c,
		cfg:    cfg,
		rnd:    rng.New(cfg.Seed).Split(uint64(rank)),
		global: lattice.NewBoxGeometry(box.Nx, box.Ny, box.Nz, box.A),
		dom:    dom,
		pool:   pool,
	}
	r.cache = kmc.NewCache(dom, tb.NewCentres(r.global, dom.Origin, dom.Size), model, cfg.Temperature, nil, nil)
	if set := cfg.Telemetry; set != nil {
		seg := set.Trace().PhaseAt(telemetry.PhaseRun, telemetry.PhaseSegment)
		r.hopCtr = set.Reg().Counter(telemetry.MetricStepTotal,
			"Executed KMC hops (serial engine steps plus parallel rank hops).")
		r.sectorPh = seg.Child(telemetry.PhaseSector)
		r.exchangePh = seg.Child(telemetry.PhaseExchange)
	}
	// Scatter: local + ghost contents from the global box.
	dom.ForEachLocal(func(v lattice.Vec, idx int) {
		dom.Types()[idx] = box.Get(v)
		if box.Get(v) == lattice.Vacancy {
			r.cache.Add(v)
		}
	})
	dom.ForEachGhost(func(v lattice.Vec, idx int) {
		dom.Types()[idx] = box.Get(v)
	})
	return r
}

// setAll updates every periodic image of the canonical site within the
// extended region (an undivided axis can hold two images of one site)
// and reports whether there was one.
func (r *rankState) setAll(canon lattice.Vec, s lattice.Species) (found bool) {
	period := lattice.Vec{X: 2 * r.global.Nx, Y: 2 * r.global.Ny, Z: 2 * r.global.Nz}
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				v := lattice.Vec{X: canon.X + dx*period.X, Y: canon.Y + dy*period.Y, Z: canon.Z + dz*period.Z}
				if r.dom.Contains(v) {
					r.dom.Set(v, s)
					found = true
				}
			}
		}
	}
	return found
}

// sectorOf returns the 2×2×2 sector octant (0–7) of a local-region site.
func (r *rankState) sectorOf(v lattice.Vec) int {
	rel := v.Sub(r.dom.Origin)
	s := 0
	if 2*rel.X >= r.dom.Size.X {
		s |= 1
	}
	if 2*rel.Y >= r.dom.Size.Y {
		s |= 2
	}
	if 2*rel.Z >= r.dom.Size.Z {
		s |= 4
	}
	return s
}

// runSector evolves the active sector for the window (seconds).
func (r *rankState) runSector(sector int, window float64) {
	var clock float64
	// Membership changes only when a hop carries its vacancy out of the
	// sector; systems are neither adopted nor renumbered otherwise.
	rescan := true
	for {
		if rescan {
			r.members = r.members[:0]
			for slot, sys := range r.cache.Systems {
				if r.sectorOf(sys.Centre) == sector {
					r.members = append(r.members, slot)
				}
			}
			rescan = false
		}
		r.dirty = r.dirty[:0]
		for _, slot := range r.members {
			if r.cache.Systems[slot].Dirty {
				r.dirty = append(r.dirty, slot)
			}
		}
		r.refresh(r.dirty)
		// Active systems: local vacancies currently in this sector.
		active := r.active[:0]
		var total float64
		for _, slot := range r.members {
			if sys := r.cache.Systems[slot]; sys.Total > 0 {
				active = append(active, slot)
				total += sys.Total
			}
		}
		r.active = active
		if total <= 0 {
			return
		}
		dt := r.rnd.ExpDeltaT(total)
		clock += dt
		if clock > window {
			r.stats.Discarded++
			return
		}
		// Select vacancy then direction.
		target := r.rnd.Float64() * total
		slot := active[len(active)-1]
		var acc float64
		for _, s := range active {
			acc += r.cache.Systems[s].Total
			if target < acc {
				slot = s
				break
			}
		}
		sys := r.cache.Systems[slot]
		k := sys.Direction(r.rnd.Float64())
		rescan = !r.executeHop(slot, k) || r.sectorOf(sys.Centre) != sector
	}
}

// refresh recomputes the dirty systems in slots as one batch, with as
// many helpers as the pool can lend; a batch of one runs inline.
func (r *rankState) refresh(slots []int) {
	if len(slots) > 1 {
		r.helpers = r.pool.borrow(r.helpers[:0], len(slots)-1)
	}
	r.cache.RefreshBatch(slots, r.helpers)
	r.pool.giveBack(r.helpers)
	r.helpers = r.helpers[:0]
}

// helperPool lends the ranks of one Run the models that evaluate a batch
// beside a rank's own: the paper's CPEs under each MPE. It holds at most
// max models, made by factory on first use; a rank that finds none idle
// evaluates with fewer.
type helperPool struct {
	mu        sync.Mutex
	factory   func() kmc.Model
	idle      []kmc.Model
	made, max int
}

// borrow appends up to n models to dst: idle ones first, then new ones
// while the pool is under its bound.
func (p *helperPool) borrow(dst []kmc.Model, n int) []kmc.Model {
	p.mu.Lock()
	k := min(n, len(p.idle))
	dst = append(dst, p.idle[len(p.idle)-k:]...)
	p.idle = p.idle[:len(p.idle)-k]
	fresh := min(n-k, p.max-p.made)
	p.made += fresh
	p.mu.Unlock()
	for ; fresh > 0; fresh-- {
		dst = append(dst, p.factory())
	}
	return dst
}

// giveBack returns borrowed models to the pool.
func (p *helperPool) giveBack(ms []kmc.Model) {
	if len(ms) == 0 {
		return
	}
	p.mu.Lock()
	p.idle = append(p.idle, ms...)
	p.mu.Unlock()
}

// executeHop moves the vacancy of the given system one hop in direction k
// and reports whether the system is still this rank's.
func (r *rankState) executeHop(slot int, k int) (kept bool) {
	from := r.cache.Systems[slot].Centre
	toRaw := from.Add(lattice.NN1[k])
	toCanon := r.global.Wrap(toRaw)
	mover := r.dom.Get(toRaw)
	if !mover.IsAtom() {
		panic("sublattice: hop into non-atom")
	}
	r.setAll(from, mover)
	r.setAll(toCanon, lattice.Vacancy)
	r.changes = append(r.changes,
		SiteChange{Site: from, New: mover},
		SiteChange{Site: toCanon, New: lattice.Vacancy})
	r.stats.Sent += 2
	r.stats.Hops++
	r.hopCtr.Inc()

	// Other cached systems see two occupancy changes.
	r.cache.Patch(from, mover, slot)
	r.cache.Patch(toCanon, lattice.Vacancy, slot)
	if !r.dom.IsLocal(toCanon) {
		// Emigrated into a neighbour's territory: drop local ownership;
		// the neighbour adopts it when the change arrives.
		r.cache.Remove(slot)
		return false
	}
	// Stays ours: rebuild its VET now, so that it goes on being patched
	// while other sectors run.
	r.cache.Hop(slot, k, toCanon)
	return true
}

// exchange broadcasts accumulated changes and applies everyone else's.
// With an ExchangeTimeout configured it returns an error (naming the
// stalled ranks) instead of blocking forever on a dead peer.
func (r *rankState) exchange() error {
	// Peers read the payload after the gather returns, while r.changes
	// is reused for the next window, so it goes out as a copy; the
	// gathered slice is shared by every rank and only read here.
	payload := append([]SiteChange(nil), r.changes...)
	all, err := r.comm.AllGather(payload, r.cfg.ExchangeTimeout)
	if err != nil {
		return err
	}
	r.changes = r.changes[:0]
	for from, payload := range all {
		if from == r.comm.Rank() {
			continue
		}
		for _, ch := range payload.([]SiteChange) {
			r.apply(ch)
		}
	}
	return nil
}

func (r *rankState) apply(ch SiteChange) {
	canon := ch.Site
	if r.dom.IsLocal(canon) {
		old := r.dom.Get(canon)
		if old == ch.New {
			return
		}
		if old == lattice.Vacancy {
			// A vacancy we owned was consumed remotely — cannot happen
			// under the sector discipline for owned interiors, but a
			// just-adopted vacancy may be re-announced; drop ownership.
			if slot, ok := r.cache.SlotAt(canon); ok {
				r.cache.Remove(slot)
			}
		}
		r.setAll(canon, ch.New)
		if ch.New == lattice.Vacancy {
			r.cache.Add(canon)
		}
	} else if !r.setAll(canon, ch.New) {
		return // no image of the site falls in our extended region
	}
	r.cache.Patch(canon, ch.New, -1)
}

// run advances the simulation by duration seconds. It aborts cleanly
// (diagnostics, no hang) if a sector exchange times out.
func (r *rankState) run(duration float64) error {
	tstop := r.cfg.TStop
	remaining := duration
	for remaining > 1e-18*duration && remaining > 0 {
		window := tstop
		if remaining < window {
			window = remaining
		}
		for sector := 0; sector < 8; sector++ {
			sp := r.sectorPh.Start()
			r.runSector(sector, window)
			sp.EndMsg("")
			sp = r.exchangePh.Start()
			err := r.exchange()
			sp.EndMsg("")
			if err != nil {
				return fmt.Errorf("sector %d exchange: %w", sector, err)
			}
		}
		remaining -= window
	}
	return nil
}
