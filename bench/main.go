// Command bench is the repository's end-to-end performance ledger: six
// deck-driven workloads run through the path a user takes (input.Parse →
// Deck.Finish → core.New → Simulation.Run → Close), five run-level
// metrics plus an error share per workload, and a per-layer budget
// traced from the benchmark's own files. See README.md in this
// directory.
//
// Usage, from the repository root:
//
//	go run ./bench -seed 1                 # whole suite, traced, one child process per workload
//	go run ./bench -workload nnp_cached    # one workload of the suite
//	go run ./bench -aa                     # two alternating sets of passes on one build; fails if they disagree
//	go run ./bench -out ledger.json        # also write everything, per-rep samples included
//
// and, as the acceptance driver calls it (one workload, in-process, the
// result as one JSON object on the last line):
//
//	bash bench/run.sh --workload eam_serial --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Uint64("seed", 1, "replaces the `seed` line of every deck")
	reps := fs.Int("reps", 5, "timed untraced repetitions per workload")
	seconds := fs.Float64("seconds", 0, "driver mode: run one workload in-process, repeating for this many seconds, and print the result as JSON on the last line")
	trace := fs.Int("trace", 0, "driver mode: 1 adds the traced repetition and reports the per-layer metrics instead")
	aa := fs.Bool("aa", false, "run two sets of suite passes on the same build and seed, alternating, and compare their medians against the bounds")
	out := fs.String("out", "", "write the full results (per-rep samples, environment) to this JSON file")
	child := fs.String("child", "", "internal: run one workload and write its result to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *wlName != "" {
		if _, ok := findWorkload(*wlName); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *wlName, strings.Join(workloadNames(), ", "))
			return 2
		}
	}

	switch {
	case *child != "":
		res, err := runChild(childConfig{Workload: *wlName, Seed: *seed, Reps: *reps, Trace: true, Scale: 1})
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := writeJSON(*child, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0

	case *seconds > 0:
		if *wlName == "" {
			fmt.Fprintln(stderr, "bench: -seconds needs -workload")
			return 2
		}
		cfg := childConfig{Workload: *wlName, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Scale: 1}
		if cfg.Trace {
			// The traced run reports layers, not end-to-end values: two
			// untraced repetitions are enough to validate the traced one
			// against and to measure its overhead.
			cfg.Reps, cfg.Seconds = 2, 0
		}
		res, err := runChild(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printChild(stdout, res)
		fmt.Fprintln(stdout, driverLine(res, cfg.Trace))
		return 0
	}

	names := workloadNames()
	if *wlName != "" {
		names = []string{*wlName}
	}
	// Under -aa every workload runs 2·aaRounds children back to back,
	// assigned alternately to the two sets being compared, so a slow
	// minute of the machine falls on both sets alike.
	passes := 1
	if *aa {
		passes = 2 * aaRounds
	}
	report := fullReport{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Commit: commit(), Seed: *seed, Reps: *reps}
	report.Runs = make([][]*childResult, passes)
	code := 0
suite:
	for _, name := range names {
		for p := range report.Runs {
			res, err := spawnChild(name, *seed, *reps, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				code = 1
				break suite
			}
			printChild(stdout, res)
			report.Runs[p] = append(report.Runs[p], res)
		}
	}
	if *aa && code == 0 && !compareAA(stdout, report.Runs) {
		code = 1
	}
	for _, set := range report.Runs {
		for _, res := range set {
			if res.Failed > 0 {
				code = 1
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, report); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// fullReport is what -out writes.
type fullReport struct {
	GoVersion string           `json:"go_version"`
	NProc     int              `json:"nproc"`
	Commit    string           `json:"commit"`
	Seed      uint64           `json:"seed"`
	Reps      int              `json:"reps"`
	Runs      [][]*childResult `json:"runs"` // one per suite pass (-aa makes 2·aaRounds, alternately of set one and set two)
}

// commit names the checkout, when it is a git checkout.
func commit() string {
	outBytes, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outBytes))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spawnChild re-executes this binary for one workload, so that every
// workload gets a process of its own: ru_maxrss and CPU time start
// clean, and workloads never run concurrently.
func spawnChild(name string, seed uint64, reps int, stderr io.Writer) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := benchDir()
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(outDir, "child-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command(self, "-child", tmp.Name(), "-workload", name,
		"-seed", fmt.Sprint(seed), "-reps", fmt.Sprint(reps))
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	res := &childResult{}
	return res, json.Unmarshal(data, res)
}

// driverLine renders the acceptance driver's result object: every
// end-to-end metric without tracing, every per-layer metric with it.
func driverLine(res *childResult, traced bool) string {
	metrics := map[string]metric{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = metric{Value: res.Layers[d.Name].Value, Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = metric{Value: res.E2E[d.Name].Best, Unit: d.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	return string(line)
}

// printChild prints one workload's metrics by name, with units.
func printChild(w io.Writer, res *childResult) {
	fmt.Fprintf(w, "== %s  seed %d  GOMAXPROCS %d  %d timed reps\n", res.Workload, res.Seed, res.GoMaxProcs, len(res.Reps))
	for _, d := range endToEnd {
		s := res.E2E[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s median %.6g  q1 %.6g  q3 %.6g  n %d\n", d.Name, s.Best, d.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-8s %d failed of %d attempted\n", errorShare, res.E2E[errorShare].Best, "ratio", res.Failed, res.Attempted)
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-26s %s\n", status, c.Name, c.Note)
	}
	for _, r := range res.Reps {
		if r.Err != "" {
			fmt.Fprintf(w, "  rep FAILED: %s\n", r.Err)
		}
	}
	if len(res.Layers) == 0 {
		return
	}
	fmt.Fprintf(w, "  -- per layer (traced rep + probes; layers not on this workload's path are left out)\n")
	for _, d := range slices.Concat(perLayer, cleanCounters) {
		m, ok := res.Layers[d.Name]
		if !ok {
			continue
		}
		note := ""
		if dd, ok := res.Dists[d.Name]; ok {
			note = fmt.Sprintf("n %d", dd.N)
			if strings.HasSuffix(d.Name, "_p99") {
				note += fmt.Sprintf(", tail is p%g", dd.TailPct)
			}
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", d.Name, m.Value, d.Unit, note)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", res.TraceFile)
	}
}

// exactCounts are per-layer metrics that are counts, not timings: two
// runs of the same code and seed must agree on them to the last digit.
var exactCounts = []string{
	"kmc.refreshes_per_hop", "kmc.refills_per_hop", "kmc.patches_per_hop",
	"evalserve.hit_rate", "wire.bytes_per_request", "traj.bytes_per_event",
	"sublattice.discard_ratio",
}

// aaRounds is how many passes each of the two -aa sets has. A single
// pass per set cannot tell a changed program from a slow minute of the
// machine; the median of three can.
const aaRounds = 3

// compareAA takes 2·aaRounds suite passes, alternately of set one and set
// two, and prints per workload and end-to-end metric the two sets'
// medians, their relative difference and the bound. It reports whether
// every difference is within its bound and every exact count identical
// in all passes.
func compareAA(w io.Writer, passes [][]*childResult) bool {
	ok := true
	fmt.Fprintf(w, "\n== A/A: two sets of %d suite passes, alternating, same build, same seed\n", aaRounds)
	fmt.Fprintf(w, "  %-16s %-20s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range passes[0] {
		for _, d := range endToEnd {
			var sets [2][]float64
			for p, pass := range passes {
				sets[p%2] = append(sets[p%2], pass[i].E2E[d.Name].Best)
			}
			x, y := median(sets[0]), median(sets[1])
			diff := 0.0
			if x != 0 {
				diff = (y - x) / x
			}
			verdict := ""
			if math.Abs(diff) > d.Bound {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "  %-16s %-20s %12.6g %12.6g %+7.1f%% %5.0f%%%s\n", a.Workload, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		for _, pass := range passes[1:] {
			b := pass[i]
			if a.Failed != b.Failed {
				fmt.Fprintf(w, "  %-16s %-20s %12d %12d  DIFFERS\n", a.Workload, "failed", a.Failed, b.Failed)
				ok = false
			}
			for _, name := range exactCounts {
				if x, y := a.Layers[name].Value, b.Layers[name].Value; x != y {
					fmt.Fprintf(w, "  %-16s %-20s %12.9g %12.9g  EXACT COUNT DIFFERS\n", a.Workload, name, x, y)
					ok = false
				}
			}
		}
	}
	if ok {
		fmt.Fprintf(w, "  every difference within its bound; exact counts identical\n")
	}
	return ok
}
