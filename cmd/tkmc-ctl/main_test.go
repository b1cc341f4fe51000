package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer guards a bytes.Buffer shared between realMain's goroutine
// and the test's banner polling.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestUsageErrors: flag and argument mistakes exit 2 before any state
// is touched.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if code := realMain([]string{"-bogus"}, &out, &out, nil); code != exitUsage {
		t.Fatalf("unknown flag: exit %d", code)
	}
	if code := realMain(nil, &out, &out, nil); code != exitUsage {
		t.Fatalf("missing -data: exit %d", code)
	}
	// A negative quota is refused, naming the flag, rather than read as
	// the default.
	for _, flag := range []string{"-max-running", "-max-queued", "-tenant-running", "-tenant-queued"} {
		dir := filepath.Join(t.TempDir(), "data")
		sig := make(chan os.Signal, 1)
		sig <- syscall.SIGTERM
		var out bytes.Buffer
		code := realMain([]string{"-addr", "127.0.0.1:0", "-data", dir, flag, "-1"}, &out, &out, sig)
		if code != exitUsage || !strings.Contains(out.String(), flag) {
			t.Errorf("%s -1: exit %d, output %q", flag, code, out.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s -1: state directory touched (%v)", flag, err)
		}
	}
}

// TestServeSubmitDrain: the full binary path — start, submit over HTTP,
// SIGTERM mid-run, exit 0 with the job checkpointed and /readyz 503
// during the drain.
func TestServeSubmitDrain(t *testing.T) {
	dir := t.TempDir()
	sig := make(chan os.Signal, 1)
	var out, errOut syncBuffer
	var wg sync.WaitGroup
	var code int
	wg.Add(1)
	go func() {
		defer wg.Done()
		code = realMain([]string{"-addr", "127.0.0.1:0", "-data", dir, "-max-running", "1"},
			&out, &errOut, sig)
	}()

	addr := ""
	deadline := time.Now().Add(30 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		if i := strings.Index(out.String(), "http://"); i >= 0 {
			rest := out.String()[i+len("http://"):]
			if j := strings.Index(rest, "/jobs"); j >= 0 {
				addr = rest[:j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("no listen banner: %q / %q", out.String(), errOut.String())
	}

	deck := `
cells        10 10 10
cu           0.05
vacancy      0.002
duration     1e-7
seed         9
potential    eam
checkpoint   ck.tkmc
checkpoint_every 1e-8
`
	resp, err := http.Post("http://"+addr+"/jobs", "text/plain", strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		ID    string  `json:"id"`
		State string  `json:"state"`
		Time  float64 `json:"time"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Wait for committed progress so the drain has something to park.
	for time.Now().Before(deadline) {
		r, err := http.Get("http://" + addr + "/jobs/" + rec.ID)
		if err == nil {
			json.NewDecoder(r.Body).Decode(&rec)
			r.Body.Close()
		}
		if rec.Time > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	sig <- syscall.SIGTERM
	wg.Wait()
	if code != exitClean {
		t.Fatalf("drain exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", rec.ID, "checkpoint.tkmc")); err != nil {
		t.Fatalf("drained job has no checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ctl.wal")); err != nil {
		t.Fatalf("WAL missing after drain: %v", err)
	}
}

// TestDrainTimeoutRefused: a drain timeout that is not a finite number
// of seconds above zero, or that overflows a time.Duration, is a usage
// error before the state directory is touched. A drain would otherwise
// report a timeout at once while jobs are still checkpointing.
func TestDrainTimeoutRefused(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "0", "-5", "1e300"} {
		dir := filepath.Join(t.TempDir(), "data")
		sig := make(chan os.Signal, 1)
		sig <- syscall.SIGTERM
		var out bytes.Buffer
		code := realMain([]string{"-addr", "127.0.0.1:0", "-data", dir, "-drain-timeout", v}, &out, &out, sig)
		if code != exitUsage || !strings.Contains(out.String(), "-drain-timeout") {
			t.Errorf("-drain-timeout %s: exit %d, output %q", v, code, out.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("-drain-timeout %s: state directory touched (%v)", v, err)
		}
	}
}
