// Command tkmc-ctl is the crash-only multi-job control plane: a
// WAL-backed scheduler that runs many TensorKMC simulations under one
// roof with admission control, per-tenant quotas, priority classes and
// preemption-as-restore. Jobs are submitted as ordinary input decks over
// HTTP and every state transition is durable before it is acknowledged,
// so a SIGKILL at any instant — mid-run, mid-WAL-append, mid-preemption
// — loses nothing a restart cannot re-adopt.
//
// Usage:
//
//	tkmc-ctl -data DIR [-addr host:port]
//	         [-max-running N] [-max-queued N]
//	         [-tenant-running N] [-tenant-queued N]
//	         [-drain-timeout seconds] [-event-log path]
//
// API (on -addr):
//
//	POST   /jobs             submit a deck (text body) → 201 + job record
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        one job's record
//	DELETE /jobs/{id}        cancel at the next segment boundary
//	GET    /jobs/{id}/events live SSE stream of the job's flight recorder
//	GET    /metrics          cluster view: controller + running jobs (job label)
//	GET    /healthz          liveness (always 200 while the process runs)
//	GET    /readyz           readiness (503 once draining)
//
// On SIGINT/SIGTERM the controller drains: /readyz flips to 503, new
// submissions shed with 503, every running job checkpoints at its next
// segment boundary and is logged preempted, and the process exits 0. A
// SIGKILL instead of a drain is also fine — that is the point.
//
// Exit codes:
//
//	0  clean drain
//	1  runtime failure (recovery error, listen error, drain timeout)
//	2  usage error
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tensorkmc/internal/ctl"
	"tensorkmc/internal/telemetry"
)

const (
	exitClean   = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// realMain is the testable entry point: recover, serve, drain on signal.
func realMain(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("tkmc-ctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7970", "HTTP listen address (port 0 = kernel-picked)")
	dataDir := fs.String("data", "", "state directory (WAL, per-job checkpoints); required")
	maxRunning := fs.Int("max-running", 0, "concurrent running jobs (0 = default 2)")
	maxQueued := fs.Int("max-queued", 0, "total in-flight job bound before 503 shedding (0 = default 64)")
	tenantRunning := fs.Int("tenant-running", 0, "per-tenant running quota (0 = max-running)")
	tenantQueued := fs.Int("tenant-queued", 0, "per-tenant in-flight quota before 429 shedding (0 = max-queued)")
	drainSecs := fs.Float64("drain-timeout", 60, "max seconds to wait for running jobs to checkpoint on drain")
	eventLog := fs.String("event-log", "", "flush the controller's flight-recorder journal (including job trace spans) as JSONL to this path on exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *dataDir == "" {
		fmt.Fprintln(stderr, "tkmc-ctl: -data is required")
		return exitUsage
	}
	// A negative quota would otherwise read as "use the default".
	for _, q := range []struct {
		name string
		v    int
	}{{"max-running", *maxRunning}, {"max-queued", *maxQueued}, {"tenant-running", *tenantRunning}, {"tenant-queued", *tenantQueued}} {
		if q.v < 0 {
			fmt.Fprintf(stderr, "tkmc-ctl: -%s wants a job count of at least 0 (0 = default), got %d\n", q.name, q.v)
			return exitUsage
		}
	}
	// A NaN, non-positive or overflowing timeout would report "drain
	// timed out" at once, while jobs are still checkpointing.
	drainTimeout := *drainSecs * float64(time.Second)
	if !(drainTimeout > 0 && drainTimeout < math.MaxInt64) {
		fmt.Fprintf(stderr, "tkmc-ctl: -drain-timeout wants a finite number of seconds above zero, got %v\n", *drainSecs)
		return exitUsage
	}

	set := telemetry.NewSet()
	if *eventLog != "" {
		defer func() {
			if err := set.Events().FlushFile(*eventLog); err != nil {
				fmt.Fprintln(stderr, "tkmc-ctl: flushing event log:", err)
			}
		}()
	}
	plane, err := ctl.Open(ctl.Config{
		Dir:           *dataDir,
		MaxRunning:    *maxRunning,
		MaxQueued:     *maxQueued,
		TenantRunning: *tenantRunning,
		TenantQueued:  *tenantQueued,
		Telemetry:     set,
	})
	if err != nil {
		fmt.Fprintln(stderr, "tkmc-ctl:", err)
		return exitRuntime
	}
	defer plane.Close()

	srv, err := telemetry.Serve(*addr, ctl.APIHandler(plane))
	if err != nil {
		fmt.Fprintln(stderr, "tkmc-ctl:", err)
		return exitRuntime
	}
	defer srv.Close()

	queued, running := 0, 0
	for _, rec := range plane.List() {
		switch rec.State {
		case ctl.StateRunning:
			running++
		case ctl.StateQueued, ctl.StatePreempted:
			queued++
		}
	}
	fmt.Fprintf(stdout, "tkmc-ctl: listening on http://%s/jobs (data %s)\n", srv.Addr(), *dataDir)
	fmt.Fprintf(stdout, "tkmc-ctl: recovered %d job(s): %d runnable, %d running\n",
		len(plane.List()), queued, running)

	<-sig
	fmt.Fprintln(stdout, "tkmc-ctl: draining (running jobs checkpoint at their next segment boundary)")
	if err := plane.Drain(time.Duration(drainTimeout)); err != nil {
		fmt.Fprintln(stderr, "tkmc-ctl:", err)
		return exitRuntime
	}
	fmt.Fprintln(stdout, "tkmc-ctl: drained")
	return exitClean
}
