package ctl

// The kill-the-controller chaos matrix: a real tkmc-ctl subprocess is
// SIGKILLed mid-run, mid-WAL-append, mid-WAL-fsync, mid-compaction and
// mid-preemption — for both serial and parallel decks — then restarted
// on the same state directory. The restarted controller must re-adopt
// every job and finish it with a final checkpoint byte-identical to an
// uninterrupted baseline run of the same deck: the crash-only claim,
// proven at the strongest granularity the system has.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	ctlBinOnce sync.Once
	ctlBinPath string
	ctlBinErr  error
)

// ctlBinary builds cmd/tkmc-ctl once per test binary invocation.
func ctlBinary(t *testing.T) string {
	t.Helper()
	ctlBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tkmc-ctl-bin")
		if err != nil {
			ctlBinErr = err
			return
		}
		ctlBinPath = filepath.Join(dir, "tkmc-ctl")
		cmd := exec.Command("go", "build", "-o", ctlBinPath, "./cmd/tkmc-ctl")
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			ctlBinErr = fmt.Errorf("building tkmc-ctl: %v\n%s", err, out)
		}
	})
	if ctlBinErr != nil {
		t.Fatal(ctlBinErr)
	}
	return ctlBinPath
}

// controller is a live tkmc-ctl subprocess under test.
type controller struct {
	cmd    *exec.Cmd
	addr   string
	waitCh chan error
}

// startController launches tkmc-ctl on dataDir, parses the bound
// address from its banner, and keeps draining its stdout.
func startController(t *testing.T, dataDir, crashSpec string, extraArgs ...string) *controller {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dataDir}, extraArgs...)
	cmd := exec.Command(ctlBinary(t), args...)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, crashEnv+"=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	if crashSpec != "" {
		cmd.Env = append(cmd.Env, crashEnv+"="+crashSpec)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &controller{cmd: cmd, waitCh: make(chan error, 1)}
	t.Cleanup(func() { cmd.Process.Kill(); <-c.waitCh })

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			rest := line[i+len("listening on http://"):]
			c.addr = rest[:strings.Index(rest, "/jobs")]
			break
		}
	}
	if c.addr == "" {
		cmd.Process.Kill()
		t.Fatalf("controller printed no listen banner")
	}
	go func() {
		io.Copy(io.Discard, stdout)
		c.waitCh <- cmd.Wait()
	}()
	return c
}

// waitDead blocks until the subprocess exits and reports whether it was
// killed by SIGKILL (as opposed to exiting cleanly).
func (c *controller) waitDead(t *testing.T) bool {
	t.Helper()
	select {
	case err := <-c.waitCh:
		c.waitCh <- err // keep the channel refillable for Cleanup
		var ee *exec.ExitError
		if err == nil {
			return false
		}
		if ok := asExitError(err, &ee); ok {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok {
				return ws.Signaled() && ws.Signal() == syscall.SIGKILL
			}
		}
		return false
	case <-time.After(120 * time.Second):
		t.Fatal("controller did not die within the deadline")
		return false
	}
}

func asExitError(err error, ee **exec.ExitError) bool {
	e, ok := err.(*exec.ExitError)
	if ok {
		*ee = e
	}
	return ok
}

// sigterm asks for a graceful drain and asserts a clean exit 0.
func (c *controller) sigterm(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-c.waitCh:
		c.waitCh <- err
		if err != nil {
			t.Fatalf("drain exit: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("controller did not drain within the deadline")
	}
}

func (c *controller) post(t *testing.T, deck string) JobRecord {
	t.Helper()
	resp, err := http.Post("http://"+c.addr+"/jobs", "text/plain", strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var rec JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func (c *controller) get(id string) (JobRecord, error) {
	resp, err := http.Get("http://" + c.addr + "/jobs/" + id)
	if err != nil {
		return JobRecord{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobRecord{}, fmt.Errorf("get %s: %d", id, resp.StatusCode)
	}
	var rec JobRecord
	return rec, json.NewDecoder(resp.Body).Decode(&rec)
}

// waitHTTP polls a job over HTTP until the predicate holds. Transport
// errors are tolerated (the process may be dying under chaos).
func (c *controller) waitHTTP(t *testing.T, id, what string, pred func(JobRecord) bool) JobRecord {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	var last JobRecord
	for time.Now().Before(deadline) {
		rec, err := c.get(id)
		if err == nil {
			last = rec
			if pred(rec) {
				return rec
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s on %s; last %+v", what, id, last)
	return JobRecord{}
}

// chaosDecks are the two engine paths under test: the serial engine
// (RNG stream in the checkpoint) and the sector-parallel engine
// (deterministic per-segment reseeding).
func chaosDecks() map[string]string {
	serial := testDeck("chaos", "normal", 21, 1e-7, 2e-8)
	parallel := `
cells        10 10 10
cu           0.05
vacancy      0.002
duration     2e-7
seed         22
potential    eam
ranks        2 1 1
tstop        1e-8
checkpoint   ck.tkmc
checkpoint_every 2e-8
tenant       chaos
`
	return map[string]string{"serial": serial, "parallel": parallel}
}

// baselineCheckpoint runs the deck uninterrupted on an in-process plane
// (the identical runner code path) and returns the final checkpoint
// bytes and record.
func baselineCheckpoint(t *testing.T, deck string) ([]byte, JobRecord) {
	t.Helper()
	p := openTestPlane(t, Config{})
	rec, err := p.Submit(deck)
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, p, rec.ID, "baseline completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if final.State != StateCompleted {
		t.Fatalf("baseline: %s (%s)", final.State, final.Error)
	}
	ck, err := os.ReadFile(jobCheckpointPath(p.JobDir(rec.ID)))
	if err != nil {
		t.Fatal(err)
	}
	return ck, final
}

// TestChaosMatrix is the kill matrix: {mid-run SIGKILL, mid-WAL-append,
// post-fsync, mid-compaction} × {serial, parallel}. Every cell must
// recover to a byte-identical final checkpoint.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos matrix skipped in -short")
	}
	ctlBinary(t)
	points := []struct {
		name string
		spec string // "" = external SIGKILL once the job shows progress
	}{
		{"midrun", ""},
		{"wal-append", CrashWALAppend + ":4"},
		{"wal-fsync", CrashWALFsync + ":5"},
		{"snapshot", CrashSnapshot + ":1"},
	}
	for deckName, deck := range chaosDecks() {
		deckName, deck := deckName, deck
		t.Run(deckName, func(t *testing.T) {
			wantCk, wantRec := baselineCheckpoint(t, deck)
			for _, pt := range points {
				pt := pt
				t.Run(pt.name, func(t *testing.T) {
					dir := t.TempDir()
					c := startController(t, dir, pt.spec)
					rec := c.post(t, deck)
					if pt.spec == "" {
						// External SIGKILL once the job shows committed
						// progress (or, if it outraced the poll, after
						// completion — which then exercises restart over a
						// finished job instead).
						c.waitHTTP(t, rec.ID, "progress", func(r JobRecord) bool {
							return r.Time > 0 || r.State.Terminal()
						})
						c.cmd.Process.Kill()
					}
					if !c.waitDead(t) {
						t.Fatal("controller exited cleanly; the chaos point never fired")
					}

					// Restart on the same state directory, no chaos.
					c2 := startController(t, dir, "")
					final := c2.waitHTTP(t, rec.ID, "post-crash completion",
						func(r JobRecord) bool { return r.State.Terminal() })
					if final.State != StateCompleted {
						t.Fatalf("recovered job: %s (%s)", final.State, final.Error)
					}
					if final.Time != wantRec.Time || final.Hops != wantRec.Hops {
						t.Fatalf("recovered trajectory diverged: t=%v hops=%d, baseline t=%v hops=%d",
							final.Time, final.Hops, wantRec.Time, wantRec.Hops)
					}
					c2.sigterm(t)

					gotCk, err := os.ReadFile(filepath.Join(dir, "jobs", rec.ID, "checkpoint.tkmc"))
					if err != nil {
						t.Fatal(err)
					}
					if string(gotCk) != string(wantCk) {
						t.Fatalf("post-crash checkpoint differs from uninterrupted baseline (%d vs %d bytes)",
							len(gotCk), len(wantCk))
					}
				})
			}
		})
	}
}

// TestChaosPreemptionCrash kills the controller in the narrow window
// where a preemption victim has checkpointed and stopped but its
// requeue transition is not yet logged. Recovery must finish both the
// victim and the preemptor with baseline-identical checkpoints.
func TestChaosPreemptionCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos skipped in -short")
	}
	ctlBinary(t)
	// A hundred segments: the victim must still be mid-run when the
	// preemptor arrives, and ten segments can finish between two polls.
	lowDeck := testDeck("chaos", "low", 31, 1e-6, 1e-8)
	highDeck := testDeck("rush", "high", 32, 2e-8, 1e-8)
	lowCk, lowRec := baselineCheckpoint(t, lowDeck)
	highCk, highRec := baselineCheckpoint(t, highDeck)

	dir := t.TempDir()
	c := startController(t, dir, CrashPreempt+":1", "-max-running", "1")
	low := c.post(t, lowDeck)
	c.waitHTTP(t, low.ID, "low job progress", func(r JobRecord) bool {
		return r.State == StateRunning && r.Time > 0
	})
	high := c.post(t, highDeck) // triggers the preemption whose handling crashes
	if !c.waitDead(t) {
		t.Fatal("controller survived the preemption crash point")
	}

	c2 := startController(t, dir, "", "-max-running", "1")
	lowFinal := c2.waitHTTP(t, low.ID, "victim completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	highFinal := c2.waitHTTP(t, high.ID, "preemptor completion",
		func(r JobRecord) bool { return r.State.Terminal() })
	if lowFinal.State != StateCompleted || highFinal.State != StateCompleted {
		t.Fatalf("recovered states: low=%s (%s) high=%s (%s)",
			lowFinal.State, lowFinal.Error, highFinal.State, highFinal.Error)
	}
	if lowFinal.Restores < 1 {
		t.Fatalf("victim was not re-adopted: %+v", lowFinal)
	}
	c2.sigterm(t)

	for _, check := range []struct {
		id   string
		want []byte
		rec  JobRecord
		got  JobRecord
	}{{low.ID, lowCk, lowRec, lowFinal}, {high.ID, highCk, highRec, highFinal}} {
		got, err := os.ReadFile(filepath.Join(dir, "jobs", check.id, "checkpoint.tkmc"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(check.want) {
			t.Fatalf("%s: checkpoint differs from baseline", check.id)
		}
		if check.got.Time != check.rec.Time || check.got.Hops != check.rec.Hops {
			t.Fatalf("%s: trajectory diverged", check.id)
		}
	}
}
