package ctl

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// Crash points are the chaos-matrix instrumentation: a tkmc-ctl process
// started with TKMC_CTL_CRASH="<point>:<n>" SIGKILLs itself the n-th
// time execution reaches the named point. Self-SIGKILL is the honest
// crash — no deferred functions, no flushes, no atexit — which is
// exactly what the crash-only recovery path must survive. The hook
// reads the environment once and is a no-op (one atomic load) when the
// variable is unset, so production runs pay nothing.
const (
	// CrashWALAppend fires after a WAL record is written but before it
	// is fsynced: the acknowledged-state-is-durable boundary.
	CrashWALAppend = "wal-append"
	// CrashWALFsync fires after the fsync but before the in-memory
	// state applies: a durable record the dying process never acted on.
	CrashWALFsync = "wal-fsync"
	// CrashSnapshot fires mid-compaction: the compacted log has been
	// renamed over the old one but not yet reopened.
	CrashSnapshot = "snapshot"
	// CrashPreempt fires mid-preemption: the victim has checkpointed
	// and stopped, but its requeue transition has not been logged.
	CrashPreempt = "preempt"
	// CrashFanout fires after each ensemble child is logged and applied
	// during fan-out: recovery must finish the fan-out idempotently from
	// the parent's durable record.
	CrashFanout = "fanout"
)

// crashEnv names the environment variable carrying the crash plan.
const crashEnv = "TKMC_CTL_CRASH"

var crashPlan struct {
	point string
	count atomic.Int64 // remaining hits before the kill
}

func init() {
	spec := os.Getenv(crashEnv)
	if spec == "" {
		return
	}
	point, nStr, ok := strings.Cut(spec, ":")
	n := int64(1)
	if ok {
		v, err := strconv.ParseInt(nStr, 10, 64)
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "ctl: ignoring malformed %s=%q\n", crashEnv, spec)
			return
		}
		n = v
	}
	crashPlan.point = point
	crashPlan.count.Store(n)
}

// maybeCrash SIGKILLs the process when the crash plan's point is
// reached for the configured occurrence.
func maybeCrash(point string) {
	if crashPlan.point != point {
		return
	}
	if crashPlan.count.Add(-1) != 0 {
		return
	}
	// SIGKILL cannot be caught: the process dies here, mid-operation,
	// exactly like a machine loss. Fallback to Exit only for platforms
	// where the kill syscall itself fails.
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	os.Exit(137)
}
