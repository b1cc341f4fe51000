package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/input"
	"tensorkmc/internal/units"
)

// childConfig is one workload run in one process.
type childConfig struct {
	Workload string
	Seed     uint64
	// Reps is the number of timed, untraced repetitions; when zero the
	// child repeats until Seconds of measurement have elapsed (at least
	// minReps).
	Reps    int
	Seconds float64
	// Trace adds the traced repetition and the per-layer probes.
	Trace bool
	// Scale multiplies the deck's duration: 1 on every command-line
	// path; only the smoke test, which runs 1/20, sets anything else.
	Scale float64
}

// minReps is the fewest timed repetitions a run reports the best of.
const minReps = 3

// setupsPerRep is how many additional set-up-only cycles (parse →
// core.New → Close, no Run) follow each timed repetition, so setup_s
// rests on enough samples to be steady even though set-up is only
// milliseconds long.
const setupsPerRep = 8

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check's outcome.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// childResult is everything a child reports.
type childResult struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Reps []repResult `json:"reps"`
	// E2E holds the end-to-end metrics: the best over the timed reps
	// with median, quartiles, n and the per-rep values.
	E2E map[string]sample `json:"e2e"`
	// Layers holds the per-layer metrics of the traced repetition and
	// probes (empty without -trace, or withheld when the traced rep was
	// invalid).
	Layers map[string]metric `json:"layers,omitempty"`
	// Dists holds the timing distributions behind the *_p50/_p99
	// metrics: n and which tail percentile the sample size supports.
	Dists map[string]dist `json:"dists,omitempty"`

	Checks     []check `json:"checks"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	TraceValid bool    `json:"trace_valid"`
	TraceFile  string  `json:"trace_file,omitempty"`
}

func (r *childResult) addCheck(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Note: fmt.Sprintf(format, args...)})
}

// benchDir locates the benchmark's directory: bench/ under the working
// directory (how `go run ./bench` and the acceptance driver start it) or
// the working directory itself (how `go test` starts the package).
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "decks", "eam_serial.deck")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("bench: cannot find bench/decks; run from the repository root")
}

// newEnv loads the workload's deck, substitutes the seed and prepares
// the process-wide scratch directory.
func newEnv(wl workload, seed uint64, scale float64) (*runEnv, error) {
	dir, err := benchDir()
	if err != nil {
		return nil, err
	}
	text, err := os.ReadFile(filepath.Join(dir, "decks", wl.deckFile()))
	if err != nil {
		return nil, err
	}
	text, err = substituteSeed(text, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.deckFile(), err)
	}
	deck, err := input.Parse(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.deckFile(), err)
	}
	e := &runEnv{
		wl:       wl,
		deck:     text,
		parsed:   deck,
		root:     filepath.Dir(dir),
		out:      filepath.Join(dir, "out"),
		scratch:  filepath.Join(dir, "out", fmt.Sprintf("tmp-%s-%d", wl.Name, os.Getpid())),
		seed:     seed,
		scale:    scale,
		duration: deck.Duration * scale,
	}
	return e, nil
}

// loops scales a probe's iteration count down for the smoke test, which
// checks that every number is produced, not how steady it is.
func (e *runEnv) loops(n int) int {
	if e.scale < 1 {
		n = max(n/20, 2)
	}
	return n
}

// defaults resolves the settings core.New defaults when a deck leaves
// them out: lattice constant, cutoff, temperature.
func defaults(cfg core.Config) (a, rcut, temp float64) {
	a, rcut, temp = cfg.LatticeConstant, cfg.Cutoff, cfg.Temperature
	if a == 0 {
		a = units.LatticeConstantFe
	}
	if rcut == 0 {
		rcut = units.CutoffStandard
	}
	if temp == 0 {
		temp = units.ReactorTemperature
	}
	return a, rcut, temp
}

// tables builds the encoding tables the deck implies.
func (e *runEnv) tables() *encoding.Tables {
	a, rcut, _ := defaults(e.parsed.Config)
	return encoding.New(a, rcut)
}

// runChild runs one workload in this process: warm-up where the
// workload has long-lived state, the timed untraced repetitions, extra
// set-up samples, the output checks and — with Trace — one traced
// repetition and the per-layer probes.
func runChild(cfg childConfig) (*childResult, error) {
	wl, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if wl.MaxProcs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.MaxProcs))
	}
	env, err := newEnv(wl, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(env.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.scratch)

	res := &childResult{
		Workload:   wl.Name,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		E2E:        map[string]sample{},
	}

	// Long-lived state first: a serve fleet outlives the runs that use
	// it, so its nodes start once and one discarded repetition warms
	// their caches. That cost is reported, but is not part of setup_s.
	var warmupS float64
	if wl.FleetNodes > 0 {
		t0 := time.Now()
		env.fleet, err = startFleet(wl.FleetNodes, env.tables())
		if err != nil {
			return nil, err
		}
		defer env.fleet.close()
		if warm, _ := env.runRep(repOptions{}); warm.Err != "" {
			return nil, fmt.Errorf("fleet warm-up repetition failed: %s", warm.Err)
		}
		warmupS = time.Since(t0).Seconds()
	}

	// Timed repetitions: fresh Simulation each, same seed, so every
	// repetition does identical work. Each is followed by a few
	// set-up-only cycles, so the set-up samples are spread over the whole
	// run instead of bunched where one slow second would skew them all.
	reps := cfg.Reps
	var setups []float64
	start := time.Now()
	for i := 0; ; i++ {
		if reps > 0 && i >= reps {
			break
		}
		if reps == 0 && i >= minReps && time.Since(start).Seconds() >= cfg.Seconds {
			break
		}
		r, _ := env.runRep(repOptions{})
		res.Reps = append(res.Reps, r)
		if r.Err == "" {
			setups = append(setups, r.SetupS)
		}
		for j := 0; j < env.loops(setupsPerRep); j++ {
			if s, err := env.setupOnly(); err == nil {
				setups = append(setups, s)
			}
		}
	}
	peakMB := peakRSSMB() // before checks and probes, which allocate on their own

	res.summarize(setups, peakMB)
	env.outputChecks(res)

	if cfg.Trace {
		env.traceAndProbe(res, warmupS)
	}
	res.Attempted = len(res.Reps) + len(res.Checks)
	for _, r := range res.Reps {
		if r.Err != "" {
			res.Failed++
		}
	}
	for _, c := range res.Checks {
		if !c.OK {
			res.Failed++
		}
	}
	res.E2E[errorShare] = newSample("ratio", "lower", []float64{float64(res.Failed) / float64(res.Attempted)})
	return res, nil
}

// setupOnly times one set-up cycle without a run.
func (e *runEnv) setupOnly() (seconds float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	dir, err := e.repDir()
	if err != nil {
		return 0, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	t0 := time.Now()
	p, err := e.prepare(dir)
	if err != nil {
		return 0, err
	}
	if p.rec != nil {
		defer p.rec.Close()
	}
	sim, err := core.New(p.cfg)
	if err != nil {
		return 0, err
	}
	seconds = time.Since(t0).Seconds()
	sim.Close()
	return seconds, nil
}

// summarize turns the timed repetitions into the end-to-end metrics.
func (r *childResult) summarize(setups []float64, peakMB float64) {
	var hps, tts, cpu []float64
	for _, rep := range r.Reps {
		if rep.Err != "" || rep.Hops == 0 {
			continue
		}
		hps = append(hps, float64(rep.Hops)/rep.RunS)
		tts = append(tts, rep.TotalS)
		cpu = append(cpu, rep.CPUS/(float64(rep.Hops)/1000))
	}
	values := map[string][]float64{
		"hops_per_s": hps, "time_to_solution_s": tts, "setup_s": setups,
		"cpu_s_per_khop": cpu, "peak_rss_mb": {peakMB},
	}
	for _, d := range endToEnd {
		r.E2E[d.Name] = newSample(d.Unit, d.Better, values[d.Name])
	}
}
