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
	// each step (Cache.Stale) — the no-vacancy-cache ablation.
	DisableCache bool
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

// Engine is the serial TensorKMC AKMC engine over a periodic box: one
// vacancy Cache spanning the box, and a sum tree over its slots.
type Engine struct {
	box   *lattice.Box
	cache *Cache
	tree  *SumTree
	rnd   *rng.Stream
	opts  Options

	time  float64
	steps int64
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
	pr := newProbes(opts.Telemetry)
	centres := tb.NewCentres(box, lattice.Vec{}, lattice.Vec{X: 2 * box.Nx, Y: 2 * box.Ny, Z: 2 * box.Nz})
	e := &Engine{box: box, rnd: r, opts: opts, pr: pr,
		cache: NewCache(box, centres, model, temperatureK, pr.encode, pr.eval)}
	vacancies := lattice.Vacancies(box)
	for _, v := range vacancies {
		e.cache.Add(v)
	}
	e.tree = NewSumTree(max(1, len(vacancies)))
	return e
}

// Time returns the accumulated simulated time in seconds.
func (e *Engine) Time() float64 { return e.time }

// Steps returns the number of executed hops.
func (e *Engine) Steps() int64 { return e.steps }

// Stats returns cache behaviour counters.
func (e *Engine) Stats() Stats { return e.cache.Stats }

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
	out := make([]lattice.Vec, len(e.cache.Systems))
	for i, s := range e.cache.Systems {
		out[i] = s.Centre
	}
	return out
}

// SetVacancyOrder reorders the tracked vacancy systems to match the
// given slot order, typically one captured by VacancyCenters at
// checkpoint time. It must be called on a fresh engine before any Step;
// the centres must be exactly the engine's current vacancy set. Every
// system is left dirty, so the next Step refreshes the whole tree.
func (e *Engine) SetVacancyOrder(centers []lattice.Vec) error {
	if e.steps != 0 {
		return fmt.Errorf("kmc: SetVacancyOrder on an engine that has already stepped")
	}
	return e.cache.Reorder(centers)
}

func (e *Engine) refreshAll() {
	if e.opts.DisableCache {
		e.cache.Stale()
	}
	for slot, s := range e.cache.Systems {
		if s.Dirty {
			e.cache.Refresh(slot)
			e.tree.Update(slot, s.Total)
		}
	}
}

// Step executes one KMC event, clipping at timeLimit: if the drawn
// residence time would pass the limit, the clock is set to the limit, no
// hop occurs, and ok is false. ok is also false when no events are
// possible (zero total rate).
func (e *Engine) Step(timeLimit float64) (Event, bool) {
	stepSp := e.pr.step.Start()
	defer stepSp.EndMsg("")
	e.refreshAll()

	selSp := e.pr.sel.Start()
	total := e.tree.Total()
	if total <= 0 {
		selSp.EndMsg("")
		return Event{}, false
	}

	// Draw order is part of the trajectory contract shared with the
	// baseline engine: (1) vacancy, (2) direction, (3) residence time.
	slot := e.tree.Select(e.rnd.Float64() * total)
	s := e.cache.Systems[slot]
	k := s.Direction(e.rnd.Float64())
	dt := e.rnd.ExpDeltaT(total)
	selSp.EndMsg("")
	if e.time+dt > timeLimit {
		e.time = timeLimit
		return Event{}, false
	}
	e.time += dt

	applySp := e.pr.applyPh.Start()
	from := s.Centre
	to := e.box.Wrap(from.Add(lattice.NN1[k]))
	mover := e.box.Get(to)
	if !mover.IsAtom() {
		panic(fmt.Sprintf("kmc: selected hop into non-atom %v at %v", mover, to))
	}
	e.box.Set(from, mover)
	e.box.Set(to, lattice.Vacancy)
	// Other cached systems see two occupancy changes; the hopper's own
	// VET is rebuilt around its new centre.
	e.cache.Patch(from, mover, slot)
	e.cache.Patch(to, lattice.Vacancy, slot)
	e.cache.Hop(slot, k, to)
	applySp.EndMsg("")

	e.steps++
	e.pr.steps.Inc()
	return Event{Slot: slot, Direction: k, From: from, To: to, Mover: mover, DeltaE: s.DeltaE[k], DeltaT: dt}, true
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
