// Command tkmc-analyze post-processes simulation snapshots (the binary
// box files written by `tensorkmc` checkpoints): composition, Cu
// precipitate statistics (the Fig. 14 observables) and optional
// extended-XYZ export for visualisation.
//
// Usage:
//
//	tkmc-analyze -box state.box [-shells 2] [-xyz solute.xyz] [-full-xyz]
//	tkmc-analyze replay -log run.tkmctrj -to-hop N [-deck input] [-out state.tkmc]
//	tkmc-analyze trace <trace-id> journal.jsonl...
//
// The replay subcommand time-travels an event-sourced TKMCTRJ1
// trajectory log: it reconstructs the exact run state at hop N —
// byte-identical to a fresh run stopped there — and reports the
// replayed observables (including the vacancy diffusivity accumulated
// over the replay for serial logs). Parallel logs need the original
// deck (-deck) and a target on a recorded segment boundary.
//
// The trace subcommand assembles one distributed trace from any number
// of flushed flight-recorder journals (the JSONL files tensorkmc's
// `event_log` deck key and tkmc-ctl's -event-log write, and the journal
// a process hosting evalserve.Serve nodes flushes itself): spans from
// every process nest into one tree —
// controller job span, run/segment spans, per-request client eval spans
// with their retry/failover legs, and serve/evaluate spans from each fleet
// node — with orphan marks where a parent's journal was lost.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"tensorkmc/internal/cluster"
	"tensorkmc/internal/core"
	"tensorkmc/internal/diffusion"
	"tensorkmc/internal/input"
	"tensorkmc/internal/telemetry"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is the testable entry point. It returns the exit status: 0
// done, 1 runtime failure, 2 usage error.
func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		var err error
		switch args[0] {
		case "replay":
			err = runReplay(stdout, stderr, args[1:])
		case "trace":
			err = runTrace(stdout, args[1:])
		default:
			fmt.Fprintf(stderr, "tkmc-analyze: unknown subcommand %q\n", args[0])
			usage(stderr)
			return 2
		}
		if err == nil || err == flag.ErrHelp {
			return 0
		}
		fmt.Fprintln(stderr, "tkmc-analyze:", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	fs := flag.NewFlagSet("tkmc-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	boxPath := fs.String("box", "", "box snapshot path (required)")
	shells := fs.Int("shells", 2, "cluster adjacency: 1 = 1NN, 2 = 1NN+2NN")
	xyz := fs.String("xyz", "", "write an extended-XYZ export here")
	fullXYZ := fs.Bool("full-xyz", false, "export all atoms, not just solutes/vacancies")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *boxPath == "" {
		usage(stderr)
		return 2
	}
	if err := checkShells(*shells); err != nil {
		fmt.Fprintln(stderr, "tkmc-analyze:", err)
		return 2
	}
	if err := run(stdout, *boxPath, *shells, *xyz, *fullXYZ); err != nil {
		fmt.Fprintln(stderr, "tkmc-analyze:", err)
		return 1
	}
	return 0
}

// usageError is a mistake in how a subcommand was invoked, which exits
// 2; any other error is a runtime failure and exits 1.
type usageError struct{ error }

// checkShells refuses a cluster adjacency cluster.Analyze does not
// define, before any input is read.
func checkShells(n int) error {
	if n != 1 && n != 2 {
		return usageError{fmt.Errorf("-shells wants 1 (1NN) or 2 (1NN+2NN), got %d", n)}
	}
	return nil
}

// usage lists every invocation form, so a typo'd subcommand tells the
// user what does exist instead of a bare flag error.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: tkmc-analyze -box <snapshot> [-shells N] [-xyz out.xyz] [-full-xyz]")
	fmt.Fprintln(w, "       tkmc-analyze replay -log <trajectory> -to-hop N [-deck input] [-out ck.tkmc]")
	fmt.Fprintln(w, "       tkmc-analyze trace <trace-id> <journal.jsonl>...")
	fmt.Fprintln(w, "subcommands: replay (time-travel a trajectory log), trace (assemble a distributed trace)")
}

// runTrace implements the trace subcommand: collect one trace's spans
// from the given journal files and print the assembled tree.
func runTrace(w io.Writer, args []string) error {
	if len(args) < 2 {
		return usageError{errors.New("trace wants a trace ID and at least one journal file:\n       tkmc-analyze trace <trace-id> <journal.jsonl>...")}
	}
	id, err := telemetry.ParseID(args[0])
	if err != nil {
		return usageError{err}
	}
	recs, err := telemetry.Collect(id, args[1:])
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no spans for trace %s in %d journal file(s)", telemetry.ID(id), len(args)-1)
	}
	return telemetry.Assemble(id, recs).Write(w)
}

// runReplay implements the replay subcommand. Flag errors and usage
// go to stderr.
func runReplay(w, stderr io.Writer, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	logPath := fs.String("log", "", "TKMCTRJ1 trajectory log (required)")
	toHop := fs.Int64("to-hop", -1, "target hop count (required)")
	deckPath := fs.String("deck", "", "input deck, required for parallel logs (re-runs recorded segments)")
	out := fs.String("out", "", "write the reconstructed TKMCBOX2 checkpoint here")
	shells := fs.Int("shells", 2, "cluster adjacency: 1 = 1NN, 2 = 1NN+2NN")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return err
	} else if err != nil {
		return usageError{err}
	}
	if *logPath == "" || *toHop < 0 {
		return usageError{errors.New("replay needs -log <trajectory> and -to-hop N")}
	}
	if err := checkShells(*shells); err != nil {
		return err
	}

	var ck *core.Checkpoint
	var tr *diffusion.Tracker
	if *deckPath != "" {
		deck, err := input.ParseFile(*deckPath)
		if err != nil {
			return err
		}
		cfg, err := deck.Finish()
		if err != nil {
			return err
		}
		ck, err = core.ReplayParallelToHop(cfg, *logPath, *toHop)
		if err != nil {
			return err
		}
	} else {
		var err error
		ck, tr, err = core.ReplayDiffusion(*logPath, *toHop)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "replayed %s to hop %d: t = %.6g s, %d vacancies\n",
		*logPath, ck.Hops, ck.Time, len(ck.Vacancies))
	a := cluster.Analyze(ck.Box, *shells)
	fmt.Fprintf(w, "clusters (%dNN adjacency): %d isolated Cu, %d clusters, max size %d\n",
		*shells, a.Isolated, a.Clusters, a.MaxSize)
	if tr != nil && tr.Time() > 0 {
		fmt.Fprintf(w, "vacancy diffusivity over the replayed window: %.4g A^2/s (%d hops tracked)\n",
			tr.Coefficient(ck.Box.A), tr.Hops())
	}
	if *out != "" {
		if err := ck.SaveFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *out)
	}
	return nil
}

func run(w io.Writer, boxPath string, shells int, xyzPath string, fullXYZ bool) error {
	// Accept both full-state TKMCBOX2 checkpoints and legacy TKMCBOX1
	// box snapshots.
	ck, err := core.LoadCheckpointFile(boxPath)
	if err != nil {
		return err
	}
	box := ck.Box
	fe, cu, vac := box.Count()
	fmt.Fprintf(w, "box: %dx%dx%d cells (%d sites), a = %.3f A\n",
		box.Nx, box.Ny, box.Nz, box.NumSites(), box.A)
	if ck.Time > 0 || ck.Hops > 0 {
		fmt.Fprintf(w, "checkpoint: t = %.4g s, %d hops\n", ck.Time, ck.Hops)
	}
	fmt.Fprintf(w, "composition: %d Fe (%.3f%%), %d Cu (%.3f%%), %d vacancies (%.4f%%)\n",
		fe, pct(fe, box.NumSites()), cu, pct(cu, box.NumSites()), vac, pct(vac, box.NumSites()))

	a := cluster.Analyze(box, shells)
	fmt.Fprintf(w, "clusters (%dNN adjacency): %d isolated Cu, %d clusters, max size %d\n",
		shells, a.Isolated, a.Clusters, a.MaxSize)
	fmt.Fprintf(w, "number density: %.4g /m^3, mean radius of gyration: %.2f A\n",
		a.NumberDensity, a.MeanRadius)
	var sizes []int
	for s := range a.Histogram {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	fmt.Fprintf(w, "size histogram (size: count):")
	for _, s := range sizes {
		fmt.Fprintf(w, " %d:%d", s, a.Histogram[s])
	}
	fmt.Fprintln(w)

	if xyzPath != "" {
		f, err := os.Create(xyzPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := box.WriteXYZ(f, fmt.Sprintf("source=%s", boxPath), !fullXYZ); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", xyzPath)
	}
	return nil
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
