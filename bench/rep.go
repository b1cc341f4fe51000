package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/input"
	"tensorkmc/internal/traj"
)

// seedLine matches the value of a deck's `seed` line.
var seedLine = regexp.MustCompile(`(?mi)^([ \t]*seed[ \t]+)\d+`)

// substituteSeed replaces the value on the deck's single `seed` line and
// leaves every other byte of the deck untouched.
func substituteSeed(deck []byte, seed uint64) ([]byte, error) {
	if n := len(seedLine.FindAll(deck, -1)); n != 1 {
		return nil, fmt.Errorf("deck has %d seed lines, want exactly 1", n)
	}
	return seedLine.ReplaceAll(deck, []byte("${1}"+strconv.FormatUint(seed, 10))), nil
}

// runEnv is what every repetition of one child process shares.
type runEnv struct {
	wl       workload
	deck     []byte      // deck text with the run's seed substituted
	parsed   *input.Deck // the same deck, parsed once for its settings
	duration float64     // simulated seconds per repetition (deck × scale)
	seed     uint64
	scale    float64 // duration scale, 1 outside the smoke test
	root     string  // repository root: the directory that holds bench/
	out      string  // bench/out: span dumps and scratch
	scratch  string  // per-process scratch directory under out
	fleet    *fleet  // loopback nodes, nil unless the workload has a fleet
	repSeq   int     // numbers the repetitions' scratch directories
}

// repResult is everything one repetition measured and produced.
type repResult struct {
	Err string `json:"err,omitempty"`

	Hops    int64   `json:"hops"`
	SimTime float64 `json:"sim_time"`
	SHA     string  `json:"sha256"`
	// Before and After are the Fe/Cu/vacancy counts around the run.
	Before [3]int `json:"before"`
	After  [3]int `json:"after"`

	SetupS float64 `json:"setup_s"` // deck parse + potential load + core.New
	NewS   float64 `json:"new_s"`   // core.New alone
	RunS   float64 `json:"run_s"`   // Simulation.Run
	CloseS float64 `json:"close_s"` // Simulation.Close (+ recorder close)
	TotalS float64 `json:"total_s"` // parse through Close: time to solution
	CPUS   float64 `json:"cpu_s"`   // process user+sys CPU over the repetition

	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`

	EvalHit  float64     `json:"eval_hit_rate,omitempty"`
	EvalOcc  float64     `json:"eval_occupancy,omitempty"`
	TrajStat *traj.Stats `json:"traj,omitempty"`

	// ckpt is the final checkpoint image (kept for the output checks,
	// not serialised).
	ckpt []byte
}

// repOptions vary a repetition for the output checks.
type repOptions struct {
	// duration overrides the deck's duration when positive.
	duration float64
	// keepFiles leaves the repetition's scratch directory (trajectory
	// log, checkpoint) in place and returns its path.
	keepFiles bool
	// serial runs a parallel deck on the serial engine (ranks dropped).
	serial bool
}

// prepared is a parsed deck bound to this process's files and nodes.
type prepared struct {
	deck *input.Deck
	cfg  core.Config
	rec  *traj.Recorder
}

// prepare is the user's path up to core.New: parse the deck, resolve the
// files it names, load the potential, open the trajectory log. File
// names in a deck are relative; the harness roots output files in the
// repetition's scratch directory and input files at the repository root,
// and points eval_fleet at the nodes it started — deployment settings,
// not tunables.
func (e *runEnv) prepare(dir string) (*prepared, error) {
	deck, err := input.Parse(bytes.NewReader(e.deck))
	if err != nil {
		return nil, err
	}
	if deck.PotentialFile != "" && !filepath.IsAbs(deck.PotentialFile) {
		deck.PotentialFile = filepath.Join(e.root, deck.PotentialFile)
	}
	if deck.CheckpointFile != "" {
		deck.CheckpointFile = filepath.Join(dir, deck.CheckpointFile)
	}
	if deck.TrajLog != "" {
		deck.TrajLog = filepath.Join(dir, deck.TrajLog)
	}
	if len(deck.Config.EvalFleet) > 0 {
		if e.fleet == nil {
			return nil, fmt.Errorf("deck wants an eval_fleet but the workload starts none")
		}
		deck.Config.EvalFleet = e.fleet.addrs()
	}
	cfg, err := deck.Finish()
	if err != nil {
		return nil, err
	}
	p := &prepared{deck: deck, cfg: cfg}
	if deck.TrajLog != "" {
		mode := traj.ModeSerial
		if cfg.Ranks[0]*cfg.Ranks[1]*cfg.Ranks[2] > 1 {
			mode = traj.ModeParallel
		}
		rec, err := traj.Open(deck.TrajLog, mode, deck.TrajSnapshotEvery)
		if err != nil {
			return nil, err
		}
		p.rec = rec
		p.cfg.Traj = rec
	}
	return p, nil
}

// needsDir reports whether the deck writes files.
func (e *runEnv) needsDir() bool {
	return e.parsed.CheckpointFile != "" || e.parsed.TrajLog != ""
}

// repDir makes a fresh scratch directory for one repetition.
func (e *runEnv) repDir() (string, error) {
	if !e.needsDir() {
		return "", nil
	}
	e.repSeq++
	dir := filepath.Join(e.scratch, fmt.Sprintf("rep%d", e.repSeq))
	return dir, os.MkdirAll(dir, 0o755)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runRep executes one untraced repetition through the path a user takes
// — input.Parse → Deck.Finish → core.New → Simulation.Run → final
// checkpoint bytes → Close — on a fresh Simulation. A failure, including
// a panic out of the program (a corruption or transport tripwire, or a
// defect), is recorded in the result and never crashes the harness.
func (e *runEnv) runRep(opt repOptions) (res repResult, dir string) {
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	dir, err := e.repDir()
	if err != nil {
		res.Err = err.Error()
		return res, dir
	}
	if dir != "" && !opt.keepFiles {
		defer os.RemoveAll(dir)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()

	p, err := e.prepare(dir)
	if err != nil {
		res.Err = err.Error()
		return res, dir
	}
	if p.rec != nil {
		defer p.rec.Close()
	}
	if opt.serial {
		p.cfg.Ranks = [3]int{}
	}
	tNew := time.Now()
	sim, err := core.New(p.cfg)
	if err != nil {
		res.Err = err.Error()
		return res, dir
	}
	defer sim.Close() // idempotent; the timed Close below is the one that counts
	t1 := time.Now()
	res.SetupS = t1.Sub(t0).Seconds()
	res.NewS = t1.Sub(tNew).Seconds()
	res.Before[0], res.Before[1], res.Before[2] = sim.Box().Count()

	duration := e.duration
	if opt.duration > 0 {
		duration = opt.duration
	}
	tRun := time.Now()
	rep, err := sim.Run(duration, nil)
	res.RunS = time.Since(tRun).Seconds()
	if err != nil {
		res.Err = err.Error()
		return res, dir
	}
	res.Hops = rep.Hops
	res.SimTime = sim.Time()

	var image bytes.Buffer
	if err := sim.Checkpoint().Save(&image); err != nil {
		res.Err = err.Error()
		return res, dir
	}
	if st, ok := sim.EvalStats(); ok {
		res.EvalHit, res.EvalOcc = st.HitRate(), st.Occupancy()
	}
	res.After[0], res.After[1], res.After[2] = sim.Box().Count()

	tClose := time.Now()
	sim.Close()
	if p.rec != nil {
		st := p.rec.Stats()
		res.TrajStat = &st
		if err := p.rec.Close(); err != nil {
			res.Err = err.Error()
			return res, dir
		}
	}
	t3 := time.Now()
	res.CloseS = t3.Sub(tClose).Seconds()
	res.TotalS = t3.Sub(t0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.GCCycles = m1.NumGC - m0.NumGC

	res.ckpt = image.Bytes()
	res.SHA = sha256Hex(res.ckpt)
	return res, dir
}

// sha256Hex is the hex SHA-256 of a checkpoint or lattice image.
func sha256Hex(image []byte) string {
	digest := sha256.Sum256(image)
	return hex.EncodeToString(digest[:])
}

// forEachChunk calls visit with each checkpoint interval of a run, in
// order, mirroring how Simulation.Run slices a duration (including its
// float-dust rule), so the traced repetition replays exactly the chunks
// the program ran.
func forEachChunk(duration, every float64, visit func(chunk float64)) {
	remaining := duration
	for remaining > 0 {
		chunk := remaining
		if every > 0 && every < chunk {
			chunk = every
		}
		visit(chunk)
		remaining -= chunk
		if remaining <= duration*1e-12 {
			remaining = 0
		}
	}
}
