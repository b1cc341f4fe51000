package kmc

import (
	"fmt"
	"math"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/units"
)

// Model supplies the energetics of a vacancy system: the initial-state
// region energy and the energies of the 8 candidate final states
// (Sec. 3.4's 1+N_f evaluation). Implementations exist for the neural
// network potential (nnp.LatticeEvaluator) and the EAM potential
// (eam.RegionEvaluator).
type Model interface {
	Tables() *encoding.Tables
	HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool)
}

// Rates converts hop energies into Arrhenius propensities per Eqs. (1)–(2):
// Γ_k = Γ₀·exp(−(E_a⁰(species_k) + ΔE_k/2)/k_BT). Invalid hops get zero.
//
// A NaN or infinite total propensity means the energies feeding the
// kernel were already corrupt (a flipped potential weight, a memory
// fault): Rates panics with a *fault.CorruptionError, which the engine
// layers (core for serial runs, sublattice per rank) convert into a
// typed, non-retryable error instead of letting the trajectory silently
// rot. The check is two float comparisons per refresh — free next to
// the 1+8 energy evaluations that precede it.
func Rates(vet encoding.VET, tb *encoding.Tables, initial float64, final [8]float64, valid [8]bool, temperatureK float64) (rates [8]float64, total float64) {
	for k := 0; k < 8; k++ {
		if !valid[k] {
			continue
		}
		mover := vet[tb.NN1Index[k]]
		ea := units.MigrationEnergy(mover.EA0(), final[k]-initial)
		r := units.ArrheniusRate(ea, temperatureK)
		rates[k] = r
		total += r
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		panic(&fault.CorruptionError{
			Subsystem: "kmc",
			Detail: fmt.Sprintf("total propensity %v from rates %v (initial energy %v, finals %v)",
				total, rates, initial, final),
		})
	}
	return rates, total
}

// system is one cached vacancy system: the paper's vacancy-cache entry
// (Sec. 3.2) holding the VET and the current hop propensities.
type system struct {
	center lattice.Vec
	vet    encoding.VET
	rates  [8]float64
	deltaE [8]float64
	total  float64
	filled bool // VET reflects the lattice
	dirty  bool // rates need recomputation
	// hopped is the direction of a hop this system made since vet was
	// built (vet is then still the table around the old centre, which
	// refresh translates), −1 if it made none.
	hopped int8
}

// Event describes one executed vacancy hop.
type Event struct {
	Slot      int
	Direction int
	From, To  lattice.Vec
	Mover     lattice.Species
	DeltaE    float64
	DeltaT    float64
}

// Options tune engine behaviour; the zero value is the production
// configuration.
type Options struct {
	// DisableCache refills every VET and recomputes every propensity on
	// each step — the no-vacancy-cache ablation.
	DisableCache bool
	// LinearSelection replaces the sum tree with a cumulative linear
	// scan — the no-tree ablation.
	LinearSelection bool
	// Telemetry, if non-nil, hooks the engine into the run-wide
	// telemetry: executed hops bump tkmc_step_total and the hot path is
	// decomposed into step/select-hop/encode/eval/apply spans under
	// run/segment. Instrumentation never touches the RNG or the
	// trajectory, so telemetry-on and telemetry-off runs stay
	// bit-identical.
	Telemetry *telemetry.Set
}

// probes are the engine's pre-resolved telemetry handles; the zero
// value (all nil) disables instrumentation via the nil-safe no-ops.
type probes struct {
	steps                            *telemetry.Counter
	step, sel, encode, eval, applyPh *telemetry.Phase
}

func newProbes(set *telemetry.Set) probes {
	if set == nil {
		return probes{}
	}
	tr := set.Trace()
	step := tr.PhaseAt(telemetry.PhaseRun, telemetry.PhaseSegment, telemetry.PhaseStep)
	return probes{
		steps: set.Reg().Counter(telemetry.MetricStepTotal,
			"Executed KMC hops (serial engine steps plus parallel rank hops)."),
		step:    step,
		sel:     step.Child(telemetry.PhaseSelectHop),
		encode:  step.Child(telemetry.PhaseEncode),
		eval:    step.Child(telemetry.PhaseEval),
		applyPh: step.Child(telemetry.PhaseApply),
	}
}

// Stats counts cache behaviour for the ablation benches.
type Stats struct {
	Refills   int64 // VET rebuilds for a new or moved centre, by translation or lattice walk
	Patches   int64 // in-cache VET updates (no lattice access)
	Refreshes int64 // propensity recomputations (model calls)
}

// Engine is the serial TensorKMC AKMC engine over a periodic box.
type Engine struct {
	box   *lattice.Box
	model Model
	tb    *encoding.Tables
	temp  float64
	rnd   *rng.Stream
	opts  Options

	systems []*system
	centres *encoding.Centres // tracked vacancy centres → slot
	tree    *SumTree
	nbr     []int            // scratch: box site index of centre+rel[i], one walk
	cover   []encoding.Cover // scratch: the systems covering a changed site
	spare   encoding.VET     // scratch: the buffer a hopper's VET is translated into

	// walk makes hop bookkeeping walk the lattice — refill the hopper's
	// whole VET, ask every site around a changed one for a tracked centre
	// — instead of translating the VET and querying centres. It is set
	// where translation is not exact (a box no wider than the table, see
	// encoding.Centres.Aliased) or the cache is off, never by a tunable;
	// walks counts the full-table walks made.
	walk  bool
	walks int64

	time  float64
	steps int64
	stats Stats
	pr    probes
}

// NewEngine builds an engine over the box's current vacancies. The box
// must be large enough that a vacancy system does not wrap onto itself in
// a way the tables cannot express; boxes smaller than the CET extent are
// rejected.
func NewEngine(box *lattice.Box, model Model, temperatureK float64, r *rng.Stream, opts Options) *Engine {
	tb := model.Tables()
	if 2*box.Nx < tb.MaxExtent || 2*box.Ny < tb.MaxExtent || 2*box.Nz < tb.MaxExtent {
		panic(fmt.Sprintf("kmc: box %dx%dx%d too small for tables extent %d half-units",
			box.Nx, box.Ny, box.Nz, tb.MaxExtent))
	}
	e := &Engine{
		box:     box,
		model:   model,
		tb:      tb,
		temp:    temperatureK,
		rnd:     r,
		opts:    opts,
		centres: newCentres(tb, box),
		nbr:     make([]int, tb.NAll),
		spare:   tb.NewVET(),
		pr:      newProbes(opts.Telemetry),
	}
	e.walk = opts.DisableCache || e.centres.Aliased()
	for _, v := range lattice.Vacancies(box) {
		e.systems = append(e.systems, &system{center: v, vet: tb.NewVET(), dirty: true, hopped: -1})
		e.centres.Put(len(e.systems)-1, v)
	}
	n := len(e.systems)
	if n == 0 {
		n = 1
	}
	e.tree = NewSumTree(n)
	return e
}

// newCentres returns an empty centre set spanning the whole box.
func newCentres(tb *encoding.Tables, box *lattice.Box) *encoding.Centres {
	return tb.NewCentres(box, lattice.Vec{}, lattice.Vec{X: 2 * box.Nx, Y: 2 * box.Ny, Z: 2 * box.Nz})
}

// Time returns the accumulated simulated time in seconds.
func (e *Engine) Time() float64 { return e.time }

// Steps returns the number of executed hops.
func (e *Engine) Steps() int64 { return e.steps }

// Stats returns cache behaviour counters.
func (e *Engine) Stats() Stats { return e.stats }

// Box returns the underlying lattice.
func (e *Engine) Box() *lattice.Box { return e.box }

// RNG returns the engine's random stream, exposed so checkpoints can
// capture and restore its state for bit-exact resume.
func (e *Engine) RNG() *rng.Stream { return e.rnd }

// Restore sets the simulated clock and hop counter when resuming from a
// checkpoint.
func (e *Engine) Restore(t float64, steps int64) {
	e.time = t
	e.steps = steps
}

// VacancyCenters returns the tracked vacancy centres in slot order. Slot
// order is part of the trajectory contract: event selection maps uniform
// draws onto cumulative propensity ranges indexed by slot, so a resumed
// engine must reproduce it exactly (see SetVacancyOrder).
func (e *Engine) VacancyCenters() []lattice.Vec {
	out := make([]lattice.Vec, len(e.systems))
	for i, s := range e.systems {
		out[i] = s.center
	}
	return out
}

// SetVacancyOrder reorders the tracked vacancy systems to match the
// given slot order, typically one captured by VacancyCenters at
// checkpoint time. It must be called on a fresh engine before any Step;
// the centres must be exactly the engine's current vacancy set.
func (e *Engine) SetVacancyOrder(centers []lattice.Vec) error {
	if e.steps != 0 {
		return fmt.Errorf("kmc: SetVacancyOrder on an engine that has already stepped")
	}
	if len(centers) != len(e.systems) {
		return fmt.Errorf("kmc: vacancy order has %d centres, engine tracks %d", len(centers), len(e.systems))
	}
	reordered := make([]*system, len(centers))
	centres := newCentres(e.tb, e.box)
	for i, c := range centers {
		old, ok := e.centres.SlotAt(c)
		if !ok {
			return fmt.Errorf("kmc: vacancy order names %v, which is not a tracked vacancy", c)
		}
		if _, dup := centres.SlotAt(c); dup {
			return fmt.Errorf("kmc: vacancy order repeats centre %v", c)
		}
		reordered[i] = e.systems[old]
		centres.Put(i, c)
	}
	e.systems = reordered
	e.centres = centres
	// Any propensities computed under the old slot order live in the
	// selection tree at stale indices; force a full refresh.
	for _, s := range e.systems {
		s.dirty = true
	}
	return nil
}

// NumVacancies returns the number of tracked vacancies.
func (e *Engine) NumVacancies() int { return len(e.systems) }

// TotalRate returns the current summed propensity (refreshing any stale
// systems first).
func (e *Engine) TotalRate() float64 {
	e.refreshAll()
	if e.opts.LinearSelection {
		var t float64
		for _, s := range e.systems {
			t += s.total
		}
		return t
	}
	return e.tree.Total()
}

// refresh recomputes one system's propensities (refilling its VET if
// needed) and updates the selection structure.
func (e *Engine) refresh(slot int) {
	s := e.systems[slot]
	if !s.filled {
		sw := e.pr.encode.Start()
		types := e.box.Types()
		if k := s.hopped; k >= 0 {
			// The old VET, translated; only the fringe is read.
			e.tb.HopVET(e.spare, s.vet, int(k))
			s.vet, e.spare = e.spare, s.vet
			s.hopped = -1
			fringe := e.tb.Fringe[k]
			e.box.Neighbourhood(s.center, e.tb.FringeCET[k], e.nbr[:len(fringe)])
			for n, i := range fringe {
				s.vet[i] = types[e.nbr[n]]
			}
		} else {
			e.box.Neighbourhood(s.center, e.tb.CET, e.nbr)
			e.walks++
			for i, site := range e.nbr {
				s.vet[i] = types[site]
			}
		}
		sw.Stop()
		s.filled = true
		e.stats.Refills++
	}
	sw := e.pr.eval.Start()
	initial, final, valid := e.model.HopEnergies(s.vet)
	var rates [8]float64
	rates, s.total = Rates(s.vet, e.tb, initial, final, valid, e.temp)
	sw.Stop()
	s.rates = rates
	for k := 0; k < 8; k++ {
		if valid[k] {
			s.deltaE[k] = final[k] - initial
		} else {
			s.deltaE[k] = 0
		}
	}
	s.dirty = false
	e.stats.Refreshes++
	e.tree.Update(slot, s.total)
}

func (e *Engine) refreshAll() {
	for slot, s := range e.systems {
		if e.opts.DisableCache {
			s.filled = false
			s.dirty = true
		}
		if s.dirty {
			e.refresh(slot)
		}
	}
}

// invalidate marks every cached system whose VET covers the changed site,
// patching the cached entry in place (the vacancy-cache fast path: no
// VET is rebuilt). skipSlot is the hopper, whose VET is rebuilt instead.
func (e *Engine) invalidate(changed lattice.Vec, newSpecies lattice.Species, skipSlot int) {
	if e.walk {
		e.invalidateWalk(changed, newSpecies, skipSlot)
		return
	}
	e.cover = e.centres.Covering(changed, e.cover)
	for _, c := range e.cover {
		if c.Slot != skipSlot {
			e.patch(c.Slot, c.Entry, newSpecies)
		}
	}
}

// invalidateWalk is invalidate by a walk over the table around the changed
// site. A system covers the site iff its centre lies at changed+c for some
// CET offset c (the set is symmetric), and the site then sits at entry
// Mirror[i] of that system's VET — once per periodic image the VET holds,
// which is what a box no wider than the table needs. Every tracked centre
// is a vacancy on the lattice, so the species byte is read first and the
// centre set is asked only at the few walked sites that hold one.
func (e *Engine) invalidateWalk(changed lattice.Vec, newSpecies lattice.Species, skipSlot int) {
	e.box.Neighbourhood(changed, e.tb.CET, e.nbr)
	e.walks++
	types := e.box.Types()
	for i, site := range e.nbr {
		if types[site] != lattice.Vacancy {
			continue
		}
		if slot, ok := e.centres.SlotAt(changed.Add(e.tb.CET[i])); ok && slot != skipSlot {
			e.patch(slot, e.tb.Mirror[i], newSpecies)
		}
	}
}

// patch records a changed site at one entry of a cached system's VET.
func (e *Engine) patch(slot int, entry int32, newSpecies lattice.Species) {
	s := e.systems[slot]
	s.dirty = true
	if s.filled {
		s.vet[entry] = newSpecies
		e.stats.Patches++
	}
}

// Step executes one KMC event, clipping at timeLimit: if the drawn
// residence time would pass the limit, the clock is set to the limit, no
// hop occurs, and ok is false. ok is also false when no events are
// possible (zero total rate).
func (e *Engine) Step(timeLimit float64) (Event, bool) {
	stepSW := e.pr.step.Start()
	defer stepSW.Stop()
	e.refreshAll()

	selSW := e.pr.sel.Start()
	var total float64
	if e.opts.LinearSelection {
		for _, s := range e.systems {
			total += s.total
		}
	} else {
		total = e.tree.Total()
	}
	if total <= 0 {
		selSW.Stop()
		return Event{}, false
	}

	// Draw order is part of the trajectory contract shared with the
	// baseline engine: (1) vacancy, (2) direction, (3) residence time.
	var slot int
	target := e.rnd.Float64() * total
	if e.opts.LinearSelection {
		slot = len(e.systems) - 1
		var acc float64
		for i, s := range e.systems {
			acc += s.total
			if target < acc {
				slot = i
				break
			}
		}
	} else {
		slot = e.tree.Select(target)
	}
	s := e.systems[slot]

	k := 7
	dirTarget := e.rnd.Float64() * s.total
	var acc float64
	for i := 0; i < 8; i++ {
		acc += s.rates[i]
		if dirTarget < acc {
			k = i
			break
		}
	}

	dt := e.rnd.ExpDeltaT(total)
	selSW.Stop()
	if e.time+dt > timeLimit {
		e.time = timeLimit
		return Event{}, false
	}
	e.time += dt

	applySW := e.pr.applyPh.Start()
	from := s.center
	to := e.box.Wrap(from.Add(lattice.NN1[k]))
	mover := e.box.Get(to)
	if !mover.IsAtom() {
		panic(fmt.Sprintf("kmc: selected hop into non-atom %v at %v", mover, to))
	}
	e.box.Set(from, mover)
	e.box.Set(to, lattice.Vacancy)

	e.centres.Drop(slot)
	e.centres.Put(slot, to)
	s.center = to
	s.filled = false // centre moved: refresh rebuilds the VET
	s.dirty = true
	if !e.walk {
		s.hopped = int8(k)
	}

	// Other cached systems see two occupancy changes.
	e.invalidate(from, mover, slot)
	e.invalidate(to, lattice.Vacancy, slot)
	applySW.Stop()

	e.steps++
	e.pr.steps.Inc()
	return Event{Slot: slot, Direction: k, From: from, To: to, Mover: mover, DeltaE: s.deltaE[k], DeltaT: dt}, true
}

// RunUntil advances the clock to t (or until no events are possible) and
// returns the number of executed hops.
func (e *Engine) RunUntil(t float64) int {
	n := 0
	for e.time < t {
		if _, ok := e.Step(t); !ok {
			break
		}
		n++
	}
	return n
}

// RunSteps executes up to n hops with no time limit and returns the
// number actually executed.
func (e *Engine) RunSteps(n int) int {
	done := 0
	for i := 0; i < n; i++ {
		if _, ok := e.Step(1e300); !ok {
			break
		}
		done++
	}
	return done
}
