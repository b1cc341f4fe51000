// Command tensorkmc runs an AKMC simulation from an input deck, mirroring
// the paper artifact's `tensorkmc -in input` invocation.
//
// Usage:
//
//	tensorkmc -in input [-quiet]
//
// The deck format is documented in internal/input. During the run the
// tool reports simulated time, executed hops, and the Cu precipitation
// observables (isolated Cu count, cluster count, largest cluster, number
// density) at the requested number of snapshots.
//
// The run is driven through the self-healing supervisor: failed
// segments (a stalled rank, a timed-out exchange, an audit violation)
// are restored from the last known-good state and replayed, up to the
// deck's max_retries. SIGINT/SIGTERM interrupt gracefully at the next
// snapshot boundary, writing a final checkpoint when one is configured.
//
// Exit codes:
//
//	0  clean run
//	1  runtime failure (unrecoverable corruption, retries exhausted, I/O)
//	2  usage or input-deck error
//	3  run completed, but only after recovering from failures
//	4  interrupted by signal; final checkpoint written if configured
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/input"
	"tensorkmc/internal/supervise"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/traj"
)

// Exit codes (see the package comment).
const (
	exitClean       = 0
	exitRuntime     = 1
	exitUsage       = 2
	exitRecovered   = 3
	exitInterrupted = 4
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// realMain is the testable entry point: parses flags, runs the deck and
// maps the outcome to an exit code. sig, if non-nil, delivers shutdown
// signals checked at snapshot boundaries.
func realMain(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("tensorkmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	inPath := fs.String("in", "", "input deck path (required)")
	quiet := fs.Bool("quiet", false, "suppress snapshot lines; print only the final summary")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *inPath == "" {
		fmt.Fprintln(stderr, "usage: tensorkmc -in <deck>")
		return exitUsage
	}
	return run(*inPath, *quiet, stdout, stderr, sig)
}

func run(path string, quiet bool, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	deck, err := input.ParseFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "tensorkmc:", err)
		return exitUsage
	}
	cfg, err := deck.Finish()
	if err != nil {
		fmt.Fprintln(stderr, "tensorkmc:", err)
		return exitUsage
	}

	// Telemetry is always collected (it is cheap — atomic counters and
	// span accumulation) so the end-of-run breakdown table is available
	// on every run; the HTTP endpoint and the event-log file stay
	// opt-in via their deck keys.
	set := telemetry.NewSet()
	cfg.Telemetry = set
	if cfg.Trace && cfg.TraceParent == "" {
		// Mint the run's trace ID here, not in core.New: a supervisor
		// rebuild after a crash constructs a fresh Simulation from this
		// same Config, and pinning the parent keeps every rebuild's spans
		// in the one trace the banner printed.
		cfg.TraceParent = telemetry.NewTrace().TraceID()
	}
	if deck.EventLog != "" {
		// Deferred before anything can fail or panic: the flight
		// recorder must land on disk on every exit path, crashes
		// included (deferred functions run while panicking).
		defer func() {
			if err := set.Events().FlushFile(deck.EventLog); err != nil {
				fmt.Fprintln(stderr, "tensorkmc: writing event log:", err)
			}
		}()
	}
	if deck.TelemetryAddr != "" {
		srv, err := telemetry.Serve(deck.TelemetryAddr, telemetry.Handler(set, nil))
		if err != nil {
			fmt.Fprintln(stderr, "tensorkmc:", err)
			return exitUsage
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "tensorkmc: telemetry on http://%s/metrics\n", srv.Addr())
	}
	if deck.TrajLog != "" {
		mode := traj.ModeSerial
		if cfg.Ranks[0]*cfg.Ranks[1]*cfg.Ranks[2] > 1 {
			mode = traj.ModeParallel
		}
		rec, err := traj.Open(deck.TrajLog, mode, deck.TrajSnapshotEvery)
		if err != nil {
			fmt.Fprintln(stderr, "tensorkmc:", err)
			return exitUsage
		}
		defer rec.Close()
		rec.SetJournal(set.Events())
		cfg.Traj = rec
		fmt.Fprintf(stdout, "tensorkmc: recording %v trajectory to %s\n", mode, deck.TrajLog)
	}

	sup, err := supervise.New(cfg, supervise.Config{
		MaxRetries: deck.MaxRetries,
		AuditEvery: deck.AuditEvery,
		OnFailure: func(f supervise.Failure) {
			if f.Backoff > 0 {
				fmt.Fprintf(stderr, "tensorkmc: segment %d attempt %d failed: %v (retrying in %v)\n",
					f.Segment, f.Attempt, f.Err, f.Backoff)
			} else {
				fmt.Fprintf(stderr, "tensorkmc: segment %d attempt %d failed: %v\n", f.Segment, f.Attempt, f.Err)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "tensorkmc:", err)
		return exitUsage
	}

	// Recovery may replace the simulation; close whichever is current on
	// exit so the evaluation service and fleet client are released.
	defer func() { sup.Simulation().Close() }()

	code := simulate(deck, cfg, sup, quiet, stdout, stderr, sig)
	summarize(set, sup, stdout)
	return code
}

// simulate drives the supervised run: the banner, the snapshot loop,
// dump files and the graceful signal path. It deliberately does not
// print the telemetry summary — run() emits that after simulate
// returns, so every exit code (clean, runtime failure, recovered,
// interrupted) carries the same end-of-run account.
func simulate(deck *input.Deck, cfg core.Config, sup *supervise.Supervisor, quiet bool, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	sim := sup.Simulation()
	fe, cu, vac := sim.Box().Count()
	fmt.Fprintf(stdout, "tensorkmc: %dx%dx%d cells (%d sites): %d Fe, %d Cu, %d vacancies\n",
		sim.Box().Nx, sim.Box().Ny, sim.Box().Nz, sim.Box().NumSites(), fe, cu, vac)
	fmt.Fprintf(stdout, "tensorkmc: T=%.0f K, r_cut=%.2f Å (N_local=%d, N_region=%d), duration %.3g s\n",
		sim.Cfg.Temperature, sim.Cfg.Cutoff, sim.Tables.NLocal, sim.Tables.NRegion, deck.Duration)
	if cfg.Ranks[0]*cfg.Ranks[1]*cfg.Ranks[2] > 1 {
		fmt.Fprintf(stdout, "tensorkmc: parallel %dx%dx%d ranks, t_stop=%.3g s\n",
			cfg.Ranks[0], cfg.Ranks[1], cfg.Ranks[2], sim.Cfg.TStop)
	}
	if deck.MaxRetries > 0 || deck.AuditEvery > 0 {
		fmt.Fprintf(stdout, "tensorkmc: supervised: max_retries=%d audit_every=%d\n", deck.MaxRetries, deck.AuditEvery)
	}
	if cfg.EvalCache > 0 {
		fmt.Fprintf(stdout, "tensorkmc: evaluation service: cache=%d entries\n", cfg.EvalCache)
	}
	if id := sim.TraceID(); id != "" {
		fmt.Fprintf(stdout, "tensorkmc: trace %s (assemble with: tkmc-analyze trace %s <journals>)\n", id, id)
	}

	snapshots := deck.Snapshots
	if snapshots < 1 {
		snapshots = 1
	}
	segment := deck.Duration / float64(snapshots)
	start := time.Now()
	for i := 1; i <= snapshots; i++ {
		if interrupted(sig) {
			return shutdown(sup, deck, stdout, stderr)
		}
		if err := sup.RunTo(sim.Time() + segment); err != nil {
			fmt.Fprintln(stderr, "tensorkmc:", err)
			return exitRuntime
		}
		sim = sup.Simulation() // recovery may have rebuilt it
		if !quiet || i == snapshots {
			a := sim.Analyze()
			fmt.Fprintf(stdout, "t=%.4g s  hops=%d  isolatedCu=%d  clusters=%d  maxCluster=%d  density=%.3g /m^3\n",
				sim.Time(), sim.Hops(), a.Isolated, a.Clusters, a.MaxSize, a.NumberDensity)
		}
		if deck.DumpFile != "" {
			if err := dumpXYZ(sim, deck.DumpFile, i); err != nil {
				fmt.Fprintln(stderr, "tensorkmc:", err)
				return exitRuntime
			}
		}
	}
	if deck.CheckpointFile != "" {
		// Run checkpoints crash-safely after every interval (the deck's
		// checkpoint_every, or each snapshot segment); the file on disk
		// is already the final state.
		fmt.Fprintf(stdout, "tensorkmc: checkpoint written to %s\n", deck.CheckpointFile)
	}
	fmt.Fprintf(stdout, "tensorkmc: done: %d hops in %.2f s wall (%.0f hops/s)\n",
		sim.Hops(), time.Since(start).Seconds(),
		float64(sim.Hops())/time.Since(start).Seconds())
	if sup.Recovery().Recovered() {
		return exitRecovered
	}
	return exitClean
}

// summarize prints the end-of-run account — the per-phase timing
// breakdown, the evaluation-service counters and the recovery summary.
// run() calls it on every exit path, so a failed or interrupted run
// reports where its time went just like a clean one.
func summarize(set *telemetry.Set, sup *supervise.Supervisor, stdout io.Writer) {
	fmt.Fprintln(stdout, "tensorkmc: per-phase timing:")
	_ = set.Trace().WriteTable(stdout)
	sim := sup.Simulation()
	if st, ok := sim.EvalStats(); ok {
		fmt.Fprintln(stdout, "tensorkmc:", st.String())
	}
	if s := sup.Recovery().Summary(); s != "" {
		fmt.Fprintln(stdout, "tensorkmc:", s)
	}
}

// interrupted polls the signal channel without blocking.
func interrupted(sig <-chan os.Signal) bool {
	select {
	case <-sig:
		return true
	default:
		return false
	}
}

// shutdown handles a graceful SIGINT/SIGTERM stop: persist the final
// state when a checkpoint is configured, report, and exit with the
// interrupted status.
func shutdown(sup *supervise.Supervisor, deck *input.Deck, stdout, stderr io.Writer) int {
	sim := sup.Simulation()
	if deck.CheckpointFile != "" {
		if err := sim.SaveCheckpoint(deck.CheckpointFile); err != nil {
			fmt.Fprintln(stderr, "tensorkmc: interrupted; final checkpoint failed:", err)
			return exitRuntime
		}
		fmt.Fprintf(stdout, "tensorkmc: interrupted at t=%.4g s; checkpoint written to %s\n",
			sim.Time(), deck.CheckpointFile)
	} else {
		fmt.Fprintf(stdout, "tensorkmc: interrupted at t=%.4g s (no checkpoint configured)\n", sim.Time())
	}
	return exitInterrupted
}

// dumpXYZ writes a solute snapshot "<base>.<n>.xyz" next to the
// configured dump path.
func dumpXYZ(sim *core.Simulation, base string, n int) error {
	path := fmt.Sprintf("%s.%04d.xyz", base, n)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	comment := fmt.Sprintf("Time=%g", sim.Time())
	if err := sim.Box().WriteXYZ(f, comment, true); err != nil {
		return err
	}
	return f.Close()
}
