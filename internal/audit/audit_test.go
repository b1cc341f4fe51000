package audit

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

func alloyBox(n int, seed uint64) *lattice.Box {
	box := lattice.NewBox(n, n, n, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.03, 0.002, rng.New(seed))
	return box
}

func TestCheckCleanState(t *testing.T) {
	box := alloyBox(8, 1)
	base := Capture(box, 0)
	if err := Check(box, 1e-8, base); err != nil {
		t.Fatalf("clean state failed audit: %v", err)
	}
}

// TestCheckCatchesSpeciesDrift injects the corruption the auditor
// exists for: an Fe atom silently transmuted to Cu (both species counts
// drift, total conserved — invisible to a plain site count).
func TestCheckCatchesSpeciesDrift(t *testing.T) {
	box := alloyBox(8, 2)
	base := Capture(box, 0)
	for i := 0; i < box.NumSites(); i++ {
		if box.GetIndex(i) == lattice.Fe {
			box.Types()[i] = lattice.Cu
			break
		}
	}
	err := Check(box, 1e-8, base)
	var aerr *Error
	if !errors.As(err, &aerr) {
		t.Fatalf("species drift not detected: %v", err)
	}
	if len(aerr.Violations) != 2 {
		t.Fatalf("want Fe and Cu drift violations, got %v", aerr.Violations)
	}
	if !strings.Contains(err.Error(), "Fe count drifted") {
		t.Fatalf("violation does not name the drifted species: %v", err)
	}
}

func TestCheckCatchesVacancyDrift(t *testing.T) {
	box := alloyBox(8, 3)
	base := Capture(box, 0)
	for i := 0; i < box.NumSites(); i++ {
		if box.GetIndex(i) == lattice.Vacancy {
			box.Types()[i] = lattice.Fe
			break
		}
	}
	var aerr *Error
	if !errors.As(Check(box, 0, base), &aerr) {
		t.Fatal("vacancy annihilation not detected")
	}
}

func TestCheckCatchesClockViolations(t *testing.T) {
	box := alloyBox(8, 4)
	base := Capture(box, 5e-8)
	if err := Check(box, 4e-8, base); err == nil {
		t.Fatal("backwards clock not detected")
	}
	if err := Check(box, math.NaN(), base); err == nil {
		t.Fatal("NaN clock not detected")
	}
	if err := Check(box, 5e-8, base); err != nil {
		t.Fatalf("equal clock flagged as violation: %v", err)
	}
}

func TestPropensitiesCleanState(t *testing.T) {
	box := alloyBox(8, 5)
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	model := eam.NewRegionEvaluator(eam.New(eam.Default()), tb)
	if err := Propensities(box, model, units.ReactorTemperature); err != nil {
		t.Fatalf("clean state failed propensity audit: %v", err)
	}
}

// nanModel simulates a bit-flipped potential: every energy it emits is
// NaN, which must surface as a typed corruption, not a quiet zero rate.
type nanModel struct{ tb *encoding.Tables }

func (m *nanModel) Tables() *encoding.Tables { return m.tb }

func (m *nanModel) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	initial = math.NaN()
	for k := 0; k < 8; k++ {
		if vet[m.tb.NN1Index[k]].IsAtom() {
			final[k] = math.NaN()
			valid[k] = true
		}
	}
	return initial, final, valid
}

// TestPropensitiesCatchNaN is the deliberately injected NaN propensity
// of the acceptance criteria: the audit must convert it into the
// non-retryable *fault.CorruptionError.
func TestPropensitiesCatchNaN(t *testing.T) {
	box := alloyBox(8, 6)
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	err := Propensities(box, &nanModel{tb: tb}, units.ReactorTemperature)
	var ce *fault.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("NaN propensity not reported as corruption: %v", err)
	}
	if ce.Subsystem != "kmc" {
		t.Fatalf("corruption attributed to %q", ce.Subsystem)
	}
}
