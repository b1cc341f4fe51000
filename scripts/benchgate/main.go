// Command benchgate is the CI bench-smoke gate: it reads the
// machine-readable bench reports (BENCH_traj.json from the
// trajectory-recording bench, BENCH_trace.json from the tracing bench)
// and fails if the corresponding machinery has regressed to its
// degenerate states —
//
//   - trajectory-recording overhead > 5%: the event log has fallen off
//     the buffered fast path and is taxing every hop;
//   - bytes per logged event outside (0, 512]: the wire encoding has
//     bloated (or the report is nonsense);
//   - distributed-tracing overhead > 2% of a work-bearing (cache-miss)
//     eval request: the span machinery has structurally regressed — e.g.
//     spans started flushing synchronously instead of appending to the
//     flight-recorder ring.
//
// The thresholds are deliberately loose screens against structural
// regression, not performance SLOs: CI machines are noisy, so the gate
// only trips when the machinery stops working at all, never on ordinary
// variance. Usage: go run ./scripts/benchgate [report.json ...] — with
// no arguments it gates both default reports. Each report's kind is
// detected from its keys.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Degenerate-state thresholds (see package comment).
// maxRecordOverhead is the trajectory budget: recording rides the hot
// hop path, so anything past a few percent means the buffered writer or
// the varint encoding has structurally regressed. maxBytesPerEvent is a
// sanity bound on the TKMCTRJ1 encoding — a hop frame is ~20 bytes and
// even a snapshot-bearing log averages far under this.
// maxTraceOverhead is the distributed-tracing budget: a traced eval
// request adds two ring records client-side and one server-side, a
// fixed sub-µs tax that must stay ≤ 2% of the cache-miss request it
// rides on (the backend evaluation — the request that carries the
// simulation's work).
const (
	maxRecordOverhead = 0.05
	maxBytesPerEvent  = 512.0
	maxTraceOverhead  = 0.02
)

func main() {
	paths := os.Args[1:]
	if len(paths) == 0 {
		paths = []string{"BENCH_traj.json", "BENCH_trace.json"}
	}
	ok := true
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			fail("reading report: %v", err)
		}
		var report map[string]float64
		if err := json.Unmarshal(raw, &report); err != nil {
			fail("parsing %s: %v", path, err)
		}
		switch {
		case hasKey(report, "record_overhead"):
			ok = gateTraj(path, report) && ok
		case hasKey(report, "trace_ns_per_request"):
			ok = gateTrace(path, report) && ok
		default:
			fail("%s: neither a trajectory nor a tracing report", path)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// need looks a key up in the report, collecting absences into missing
// so one CI run reports the full shopping list instead of one missing
// key per attempt.
func need(report map[string]float64, missing *[]string, key string) float64 {
	v, ok := report[key]
	if !ok {
		*missing = append(*missing, key)
	}
	return v
}

// gateTraj screens the trajectory-recording report.
func gateTraj(path string, report map[string]float64) bool {
	var missing []string
	overhead := need(report, &missing, "record_overhead")
	perEvent := need(report, &missing, "bytes_per_event")
	if len(missing) > 0 {
		fail("%s missing %s — run the trajectory bench first "+
			"(go test -bench TrajRecordOverhead -benchtime=1x .)",
			path, strings.Join(missing, ", "))
	}

	ok := true
	if overhead > maxRecordOverhead {
		fmt.Fprintf(os.Stderr, "FAIL: trajectory recording overhead %.1f%% > %.0f%% — the event log is taxing the hot hop path\n",
			100*overhead, 100*maxRecordOverhead)
		ok = false
	}
	if perEvent <= 0 || perEvent > maxBytesPerEvent {
		fmt.Fprintf(os.Stderr, "FAIL: %.1f bytes per logged event outside (0, %.0f] — the TKMCTRJ1 encoding has bloated\n",
			perEvent, maxBytesPerEvent)
		ok = false
	}
	if ok {
		fmt.Printf("benchgate ok (%s): recording overhead %.2f%% (≤ %.0f%%), %.1f B/event (≤ %.0f)\n",
			path, 100*overhead, 100*maxRecordOverhead, perEvent, maxBytesPerEvent)
	}
	return ok
}

// hasKey reports whether the report carries the kind-detecting key.
func hasKey(report map[string]float64, key string) bool {
	_, ok := report[key]
	return ok
}

// gateTrace screens the distributed-tracing report.
func gateTrace(path string, report map[string]float64) bool {
	var missing []string
	overhead := need(report, &missing, "trace_overhead")
	traceNs := need(report, &missing, "trace_ns_per_request")
	missNs := need(report, &missing, "miss_ns_per_request")
	if len(missing) > 0 {
		fail("%s missing %s — run the tracing bench first "+
			"(go test -bench TraceRequestOverhead -benchtime=1x .)",
			path, strings.Join(missing, ", "))
	}

	ok := true
	if overhead > maxTraceOverhead {
		fmt.Fprintf(os.Stderr, "FAIL: per-request tracing overhead %.2f%% > %.0f%% — the span machinery is taxing the eval path\n",
			100*overhead, 100*maxTraceOverhead)
		ok = false
	}
	if traceNs <= 0 || missNs <= 0 {
		fmt.Fprintf(os.Stderr, "FAIL: nonsense tracing report (%.1f ns trace tax, %.1f ns miss request)\n",
			traceNs, missNs)
		ok = false
	}
	if ok {
		fmt.Printf("benchgate ok (%s): tracing tax %.0f ns/request = %.3f%% of a %.2f ms miss request (≤ %.0f%%)\n",
			path, traceNs, 100*overhead, missNs/1e6, 100*maxTraceOverhead)
	}
	return ok
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
