// Package diffusion computes transport observables from KMC
// trajectories: unwrapped per-vacancy displacements, mean squared
// displacement (MSD) and the tracer diffusion coefficient. In pure bcc
// Fe the vacancy walk is uncorrelated, giving the analytic benchmark
//
//	D_v = Γ_hop · a²   (Ų/s, with Γ_hop the single-direction hop rate),
//
// since each of the 8·Γ_hop hops covers |δ|² = 3a²/4 and D = MSD/(6t).
// The tests validate the whole engine's kinetics against this closed
// form.
package diffusion

import (
	"fmt"

	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
)

// Tracker accumulates unwrapped displacements per vacancy slot.
type Tracker struct {
	boxPeriod [3]int // half-units per axis
	disp      [][3]int
	hops      []int64
	time      float64
}

// NewTracker prepares tracking for the given box geometry and vacancy
// count.
func NewTracker(box *lattice.Box, numVacancies int) *Tracker {
	if numVacancies < 0 {
		panic(fmt.Sprintf("diffusion: invalid vacancy count %d", numVacancies))
	}
	return &Tracker{
		boxPeriod: [3]int{2 * box.Nx, 2 * box.Ny, 2 * box.Nz},
		disp:      make([][3]int, numVacancies),
		hops:      make([]int64, numVacancies),
	}
}

// Record folds one executed event into the tracker. Events must be
// supplied in order; the displacement is unwrapped through the minimum
// image (hops are single lattice steps, far below half a box).
func (t *Tracker) Record(ev kmc.Event) {
	if ev.Slot < 0 || ev.Slot >= len(t.disp) {
		panic(fmt.Sprintf("diffusion: event slot %d out of range", ev.Slot))
	}
	d := ev.To.Sub(ev.From)
	t.disp[ev.Slot][0] += wrapDisp(d.X, t.boxPeriod[0])
	t.disp[ev.Slot][1] += wrapDisp(d.Y, t.boxPeriod[1])
	t.disp[ev.Slot][2] += wrapDisp(d.Z, t.boxPeriod[2])
	t.hops[ev.Slot]++
	t.time += ev.DeltaT
}

func wrapDisp(x, period int) int {
	x %= period
	if x < -period/2 {
		x += period
	}
	if x >= period/2 {
		x -= period
	}
	return x
}

// Time returns the accumulated simulated time.
func (t *Tracker) Time() float64 { return t.time }

// Hops returns the total recorded hop count.
func (t *Tracker) Hops() int64 {
	var n int64
	for _, h := range t.hops {
		n += h
	}
	return n
}

// MSD returns the mean squared displacement in Ų for lattice constant a.
func (t *Tracker) MSD(a float64) float64 {
	if len(t.disp) == 0 {
		return 0
	}
	var sum float64
	for _, d := range t.disp {
		n2 := d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
		sum += float64(n2)
	}
	// Half-unit² → Å²: one half-unit is a/2.
	return sum / float64(len(t.disp)) * (a * a / 4)
}

// Coefficient returns the tracer diffusion coefficient D = MSD/(6t) in
// Ų/s; zero if no time has elapsed.
func (t *Tracker) Coefficient(a float64) float64 {
	if t.time <= 0 {
		return 0
	}
	return t.MSD(a) / (6 * t.time)
}

// CorrelationFactor returns f = MSD / (n_hops·|δ|²) averaged over
// vacancies: 1 for an uncorrelated walk (pure Fe), < 1 when successive
// hops anti-correlate (trapping at solutes or other vacancies, the
// flicker regime of bound states).
func (t *Tracker) CorrelationFactor(a float64) float64 {
	var hops int64
	for _, h := range t.hops {
		hops += h
	}
	if hops == 0 || len(t.disp) == 0 {
		return 0
	}
	perVac := float64(hops) / float64(len(t.disp))
	stepSq := 3 * a * a / 4
	return t.MSD(a) / (perVac * stepSq)
}

// TheoreticalPureFe returns the analytic vacancy diffusion coefficient in
// pure Fe for the single-direction hop rate Γ_hop (1/s) and lattice
// constant a (Å): D = Γ_hop·a².
func TheoreticalPureFe(hopRate, a float64) float64 {
	// 8 directions × Γ_hop hops/s, each |δ|² = 3a²/4, D = rate·|δ|²/6.
	return 8 * hopRate * (3 * a * a / 4) / 6
}

// SoluteTracker follows tagged atoms (typically Cu solutes) through
// vacancy-exchange events, yielding solute transport observables. Atoms
// are indistinguishable on the lattice, so identity is maintained by
// position: when a hop moves the atom at the vacancy's target site, any
// tagged atom there moves with it.
type SoluteTracker struct {
	boxPeriod [3]int
	pos       []lattice.Vec
	disp      [][3]int
	moves     []int64
	time      float64
}

// NewSoluteTracker tags the atoms at the given positions.
func NewSoluteTracker(box *lattice.Box, positions []lattice.Vec) *SoluteTracker {
	t := &SoluteTracker{
		boxPeriod: [3]int{2 * box.Nx, 2 * box.Ny, 2 * box.Nz},
		disp:      make([][3]int, len(positions)),
		moves:     make([]int64, len(positions)),
	}
	for _, p := range positions {
		t.pos = append(t.pos, box.Wrap(p))
	}
	return t
}

// Record folds one executed event into the tracker: the atom at ev.To
// moved to ev.From (it exchanged with the vacancy).
func (t *SoluteTracker) Record(ev kmc.Event) {
	t.time += ev.DeltaT
	for i, p := range t.pos {
		if p == ev.To {
			d := ev.From.Sub(ev.To)
			t.disp[i][0] += wrapDisp(d.X, t.boxPeriod[0])
			t.disp[i][1] += wrapDisp(d.Y, t.boxPeriod[1])
			t.disp[i][2] += wrapDisp(d.Z, t.boxPeriod[2])
			t.pos[i] = ev.From
			t.moves[i]++
		}
	}
}

// Moves returns the total tagged-atom exchanges observed.
func (t *SoluteTracker) Moves() int64 {
	var n int64
	for _, m := range t.moves {
		n += m
	}
	return n
}

// MSD returns the tagged atoms' mean squared displacement in Ų.
func (t *SoluteTracker) MSD(a float64) float64 {
	if len(t.disp) == 0 {
		return 0
	}
	var sum float64
	for _, d := range t.disp {
		sum += float64(d[0]*d[0] + d[1]*d[1] + d[2]*d[2])
	}
	return sum / float64(len(t.disp)) * (a * a / 4)
}

// Coefficient returns the solute tracer diffusion coefficient in Ų/s.
func (t *SoluteTracker) Coefficient(a float64) float64 {
	if t.time <= 0 {
		return 0
	}
	return t.MSD(a) / (6 * t.time)
}
