package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"tensorkmc/internal/feature"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sublattice"
	"tensorkmc/internal/units"
)

func TestNewDefaults(t *testing.T) {
	s, err := New(Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.01, VacancyFraction: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.LatticeConstant != units.LatticeConstantFe || s.Cfg.Temperature != units.ReactorTemperature ||
		s.Cfg.Cutoff != units.CutoffStandard || s.Cfg.TStop != sublattice.DefaultTStop {
		t.Fatalf("defaults not applied: %+v", s.Cfg)
	}
	if s.Tables.NLocal != 112 {
		t.Fatal("tables not built at the standard cutoff")
	}
	if s.Box().NumSites() != 2000 {
		t.Fatal("box size wrong")
	}
}

// TestNewValidation: a configuration no run can use is an error from
// New that names the offending value, NaN included — not a panic in the
// tables, the potential or the first parallel segment, and not a run at
// a negative temperature.
func TestNewValidation(t *testing.T) {
	nan := math.NaN()
	ok := Config{Cells: [3]int{10, 10, 10}, VacancyFraction: 0.002, Seed: 1}
	with := func(edit func(*Config)) Config {
		c := ok
		edit(&c)
		return c
	}
	for name, tc := range map[string]struct {
		cfg  Config
		want string
	}{
		"zero cells":       {Config{Cells: [3]int{0, 4, 4}}, "Cells"},
		"bad frac":         {Config{Cells: [3]int{4, 4, 4}, CuFraction: 0.9, VacancyFraction: 0.2}, "composition"},
		"cu NaN":           {with(func(c *Config) { c.CuFraction = nan }), "composition"},
		"nnp w/o net":      {with(func(c *Config) { c.Potential = NNP }), "Net"},
		"ranks 3":          {with(func(c *Config) { c.Ranks = [3]int{3, 1, 1} }), "ranks"},
		"ranks 0 2 2":      {with(func(c *Config) { c.Ranks = [3]int{0, 2, 2} }), "ranks"},
		"ranks -1 -1 1":    {with(func(c *Config) { c.Ranks = [3]int{-1, -1, 1} }), "ranks"},
		"ranks 1 1 0":      {with(func(c *Config) { c.Ranks = [3]int{1, 1, 0} }), "ranks"},
		"lattice < 0":      {with(func(c *Config) { c.LatticeConstant = -2.87 }), "lattice"},
		"lattice NaN":      {with(func(c *Config) { c.LatticeConstant = nan }), "lattice"},
		"cutoff < 0":       {with(func(c *Config) { c.Cutoff = -1 }), "cutoff"},
		"cutoff NaN":       {with(func(c *Config) { c.Cutoff = nan }), "cutoff"},
		"cutoff < EAM's":   {with(func(c *Config) { c.Cutoff = 5.8 }), "EAM"},
		"cutoff 1 EAM":     {with(func(c *Config) { c.Cutoff = 1 }), "EAM"},
		"tstop < 0":        {with(func(c *Config) { c.TStop, c.Ranks = -1, [3]int{2, 1, 1} }), "tstop"},
		"tstop NaN":        {with(func(c *Config) { c.TStop, c.Ranks = nan, [3]int{2, 1, 1} }), "tstop"},
		"temperature < 0":  {with(func(c *Config) { c.Temperature = -573 }), "temperature"},
		"temperature NaN":  {with(func(c *Config) { c.Temperature = nan }), "temperature"},
		"temperature +Inf": {with(func(c *Config) { c.Temperature = math.Inf(1) }), "temperature"},
	} {
		sim, err := New(tc.cfg)
		if err == nil {
			sim.Close()
			t.Errorf("%s: New accepted %+v", name, tc.cfg)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", name, err, tc.want)
		}
	}
}

// TestNewRejectsBoxSmallerThanTables: a box narrower than a vacancy
// system is a configuration error from New, serial or parallel — not a
// panic in the engine or in the first parallel segment.
func TestNewRejectsBoxSmallerThanTables(t *testing.T) {
	for name, cfg := range map[string]Config{
		"serial":      {Cells: [3]int{4, 4, 4}, VacancyFraction: 0.01, Seed: 1},
		"ranks 2 1 1": {Cells: [3]int{4, 4, 4}, VacancyFraction: 0.01, Seed: 1, Ranks: [3]int{2, 1, 1}},
		"one axis":    {Cells: [3]int{10, 4, 10}, VacancyFraction: 0.01, Seed: 1},
	} {
		sim, err := New(cfg)
		if err == nil {
			sim.Close()
			t.Errorf("%s: New accepted cells %v at the 6.5 Å cutoff", name, cfg.Cells)
		} else if !strings.Contains(err.Error(), "at least 5 cells") {
			t.Errorf("%s: error %q does not name the smallest usable box", name, err)
		}
	}
	// Five cells span the 9-half-unit table: the smallest box both engines accept.
	for _, ranks := range [][3]int{{}, {5, 1, 1}} {
		sim, err := New(Config{Cells: [3]int{5, 5, 5}, VacancyFraction: 0.01, Seed: 1, Ranks: ranks})
		if err != nil {
			t.Fatalf("ranks %v: %v", ranks, err)
		}
		if _, err := sim.Run(1e-9, nil); err != nil {
			t.Fatalf("ranks %v: %v", ranks, err)
		}
		sim.Close()
	}
}

// TestNewRefusesBoxBeforeTables: a tiny lattice constant (or, alike, a
// huge cutoff) needs tables far wider than the box; New refuses the deck
// from the extent alone, before building tables whose offset grid
// would be megabytes — and, for lattice 0.01, an enumeration that never
// finishes. At 1e-10 the squared cutoff radius in half-cell units would
// overflow an int.
func TestNewRefusesBoxBeforeTables(t *testing.T) {
	for _, a := range []float64{0.5, 0.01, 1e-10} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim, err := New(Config{Cells: [3]int{8, 8, 8}, LatticeConstant: a, VacancyFraction: 0.01, Seed: 1})
		runtime.ReadMemStats(&after)
		if err == nil {
			sim.Close()
			t.Fatalf("lattice %g: New accepted cells 8 8 8", a)
		}
		if !strings.Contains(err.Error(), "too small") {
			t.Fatalf("lattice %g: error %q is not the box refusal", a, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("lattice %g: New allocated %d bytes before refusing", a, alloc)
		}
	}
}

func TestSerialRun(t *testing.T) {
	s, err := New(Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	rep, err := s.Run(2e-8, func(ev kmc.Event) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if s.Time() != 2e-8 {
		t.Fatalf("Time = %v, want exactly 2e-8 (clipped)", s.Time())
	}
	if int64(events) != s.Hops() || rep.Hops != s.Hops() {
		t.Fatalf("observer saw %d events, engine reports %d", events, s.Hops())
	}
	if s.Analyze().NumCu == 0 {
		t.Fatal("analysis missing Cu")
	}
	// A second segment continues the same trajectory.
	rep2, err := s.Run(2e-8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Time() != 4e-8 {
		t.Fatalf("Time after second segment = %v", s.Time())
	}
	if rep2.Hops < rep.Hops {
		t.Fatal("hop counter went backwards")
	}
}

func TestParallelRun(t *testing.T) {
	s, err := New(Config{
		Cells: [3]int{16, 16, 16}, CuFraction: 0.03, VacancyFraction: 0.001,
		Seed: 4, Ranks: [3]int{2, 2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fe0, cu0, vac0 := s.Box().Count()
	rep, err := s.Run(1e-7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hops == 0 {
		t.Fatal("no hops in parallel run")
	}
	fe1, cu1, vac1 := s.Box().Count()
	if fe0 != fe1 || cu0 != cu1 || vac0 != vac1 {
		t.Fatal("species not conserved in parallel run")
	}
	if s.Time() != 1e-7 {
		t.Fatalf("parallel time %v", s.Time())
	}
	// Observers are a serial-only feature.
	if _, err := s.Run(1e-8, func(kmc.Event) {}); err == nil {
		t.Fatal("parallel run accepted an observer")
	}
	// Successive segments must use fresh randomness (different hops
	// expected; identical would indicate seed reuse).
	h1 := rep.Hops
	rep2, err := s.Run(1e-7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Hops == h1 {
		t.Fatal("second segment executed zero hops")
	}
}

func TestNNPPotentialPath(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{64, 8, 1}, rng.New(9))
	s, err := New(Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.02, VacancyFraction: 0.001,
		Seed: 5, Potential: NNP, Net: pot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(5e-9, nil); err != nil {
		t.Fatal(err)
	}
	if s.Hops() == 0 {
		t.Fatal("NNP-driven run executed no hops")
	}
}

func TestNNPCutoffMismatchRejected(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{64, 8, 1}, rng.New(9))
	_, err := New(Config{
		Cells: [3]int{10, 10, 10}, Potential: NNP, Net: pot,
		Cutoff: units.CutoffShort, // tables narrower than the potential
	})
	if err == nil {
		t.Fatal("expected cutoff mismatch error")
	}
}

func TestDeterministicAcrossConstructions(t *testing.T) {
	mk := func() *Simulation {
		s, err := New(Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	if _, err := a.Run(3e-8, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(3e-8, nil); err != nil {
		t.Fatal(err)
	}
	if !a.Box().Equal(b.Box()) {
		t.Fatal("same config+seed produced different trajectories")
	}
	if a.Analyze().Isolated != b.Analyze().Isolated {
		t.Fatal("observables differ")
	}
}

// TestZeroRateRunReachesDuration: a serial run on which no hop is
// possible, with no vacancy or at a temperature where every rate
// underflows to zero, still ends at its duration, as a parallel run does.
// The clock used to stay at zero, so a caller that runs until the clock
// reaches a target never returned.
func TestZeroRateRunReachesDuration(t *testing.T) {
	const duration = 1e-6
	for name, cfg := range map[string]Config{
		"no vacancy": {Cells: [3]int{8, 8, 8}, Seed: 1},
		"1 K":        {Cells: [3]int{8, 8, 8}, VacancyFraction: 0.002, Temperature: 1, Seed: 1},
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(duration, nil); err != nil {
			t.Fatal(err)
		}
		if s.Time() != duration || s.Hops() != 0 {
			t.Errorf("%s: run ended at t=%v after %d hops, want t=%v after 0", name, s.Time(), s.Hops(), duration)
		}
		s.Close()
	}
}

func TestEngineStatsExposed(t *testing.T) {
	s, err := New(Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.02, VacancyFraction: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1e-8, nil); err != nil {
		t.Fatal(err)
	}
	if s.engine.Stats().Refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
}

// TestParallelNNPRun covers the NNP-evaluator-per-rank factory path in a
// real multi-rank run.
func TestParallelNNPRun(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{64, 8, 1}, rng.New(21))
	s, err := New(Config{
		Cells: [3]int{16, 16, 16}, CuFraction: 0.02, VacancyFraction: 0.0005,
		Seed: 22, Potential: NNP, Net: pot, Ranks: [3]int{2, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fe0, cu0, vac0 := s.Box().Count()
	rep, err := s.Run(4e-8, nil)
	if err != nil {
		t.Fatal(err)
	}
	fe1, cu1, vac1 := s.Box().Count()
	if fe0 != fe1 || cu0 != cu1 || vac0 != vac1 {
		t.Fatal("species not conserved in NNP parallel run")
	}
	if rep.Hops == 0 {
		t.Fatal("no hops")
	}
}

// TestInitialBoxRestart covers the checkpoint/restart configuration.
func TestInitialBoxRestart(t *testing.T) {
	s1, err := New(Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(1e-8, nil); err != nil {
		t.Fatal(err)
	}
	snapshot := s1.Box().Clone()
	s2, err := New(Config{InitialBox: snapshot, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Box().Equal(snapshot) {
		t.Fatal("restart did not preserve the box")
	}
	// The restart clones: evolving s2 must not mutate the snapshot.
	if _, err := s2.Run(1e-8, nil); err != nil {
		t.Fatal(err)
	}
	if !snapshot.Equal(s1.Box()) {
		t.Fatal("restart aliased the caller's box")
	}
}
