package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tensorkmc/internal/core"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/input"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/units"
)

func writeDeck(t *testing.T, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "input")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDeckEndToEnd drives the CLI's run path with a real deck,
// including XYZ dumps, a checkpoint, and a restart from that checkpoint.
func TestRunDeckEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "solute")
	ckpt := filepath.Join(dir, "state.box")
	deckPath := writeDeck(t, dir, `
cells        10 10 10
cu           0.05
vacancy      0.002
duration     2e-8
seed         5
snapshots    2
potential    eam
max_retries  2
audit_every  1
dump         `+dump+`
checkpoint   `+ckpt+`
`)
	var out bytes.Buffer
	if code := realMain([]string{"-in", deckPath, "-quiet"}, &out, &out, nil); code != exitClean {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "supervised: max_retries=2 audit_every=1") {
		t.Fatalf("supervision banner missing:\n%s", out.String())
	}
	// Dumps and checkpoint must exist.
	for _, p := range []string{dump + ".0001.xyz", dump + ".0002.xyz", ckpt} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("expected output %s: %v", p, err)
		}
	}
	ck, err := core.LoadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	fe, cu, vac := ck.Box.Count()
	if fe+cu+vac != 2000 || cu == 0 || vac == 0 {
		t.Fatalf("checkpoint contents implausible: %d/%d/%d", fe, cu, vac)
	}
	if ck.Time != 2e-8 || !ck.HasRNG {
		t.Fatalf("checkpoint is not full-state: time=%v hasRNG=%v", ck.Time, ck.HasRNG)
	}

	// Restart from the checkpoint and continue.
	deckPath2 := filepath.Join(dir, "input2")
	if err := os.WriteFile(deckPath2, []byte(`
restart      `+ckpt+`
duration     1e-8
seed         6
potential    eam
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"-in", deckPath2, "-quiet"}, &out, &out, nil); code != exitClean {
		t.Fatalf("restart run exit %d", code)
	}
}

// TestExitCodeUsage: flag and deck problems are operator errors, exit 2
// — distinguishable from runtime failures in batch scripts.
func TestExitCodeUsage(t *testing.T) {
	var out bytes.Buffer
	if code := realMain(nil, &out, &out, nil); code != exitUsage {
		t.Fatalf("missing -in: exit %d", code)
	}
	if code := realMain([]string{"-bogus"}, &out, &out, nil); code != exitUsage {
		t.Fatalf("unknown flag: exit %d", code)
	}
	if code := realMain([]string{"-in", filepath.Join(t.TempDir(), "nope")}, &out, &out, nil); code != exitUsage {
		t.Fatalf("missing deck file: exit %d", code)
	}
	deckPath := writeDeck(t, t.TempDir(), "cells 10 10 10\nduration 1e-8\nbogus_key 1\n")
	if code := realMain([]string{"-in", deckPath}, &out, &out, nil); code != exitUsage {
		t.Fatalf("bad deck key: exit %d", code)
	}
}

// TestExitCodeUsageOnSmallBox: a box narrower than the tables is a deck
// error — exit 2 with one line on stderr — serial or parallel, not a
// panic's stack trace.
func TestExitCodeUsageOnSmallBox(t *testing.T) {
	for _, extra := range []string{"", "ranks 2 1 1\n"} {
		deckPath := writeDeck(t, t.TempDir(), "cells 4 4 4\nvacancy 0.01\nduration 1e-9\npotential eam\n"+extra)
		var out, errOut bytes.Buffer
		if code := realMain([]string{"-in", deckPath}, &out, &errOut, nil); code != exitUsage {
			t.Fatalf("%q: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", extra, code, exitUsage, out.String(), errOut.String())
		}
		msg := errOut.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "too small") || strings.Contains(msg, "goroutine") {
			t.Fatalf("%q: stderr is not a one-line box-size error:\n%s", extra, msg)
		}
	}
}

// TestExitCodeUsageOnBadPhysics: a deck that parses but carries a
// physical parameter no run can use is a deck error — exit 2 with one
// stderr line naming the key, not a panic's stack trace or a run at a
// negative temperature.
func TestExitCodeUsageOnBadPhysics(t *testing.T) {
	for extra, key := range map[string]string{
		"lattice -2.87\n":         "lattice",
		"cutoff -1\n":             "cutoff",
		"cutoff 5.8\n":            "cutoff",
		"cutoff 2.5\n":            "cutoff",
		"tstop -1\nranks 2 1 1\n": "tstop",
		"temperature -573\n":      "temperature",
	} {
		deckPath := writeDeck(t, t.TempDir(), "cells 10 10 10\ncu 0.05\nvacancy 0.002\nduration 2e-9\nseed 1\npotential eam\n"+extra)
		var out, errOut bytes.Buffer
		if code := realMain([]string{"-in", deckPath}, &out, &errOut, nil); code != exitUsage {
			t.Fatalf("%q: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", extra, code, exitUsage, out.String(), errOut.String())
		}
		msg := errOut.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, key) || strings.Contains(msg, "goroutine") {
			t.Fatalf("%q: stderr is not a one-line error naming %s:\n%s", extra, key, msg)
		}
	}
}

// TestExitCodeRuntimeOnCorruption: a potential file whose parameters are
// finite (so it loads) but whose region energy overflows trips the
// numerical tripwires at the first evaluation; the CLI must report it as
// a runtime failure (exit 1), not hang or retry.
func TestExitCodeRuntimeOnCorruption(t *testing.T) {
	dir := t.TempDir()
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 8, 1}, rng.New(9))
	poisonOverflow(pot)
	potPath := filepath.Join(dir, "bad.nnp")
	if err := pot.SaveFile(potPath); err != nil {
		t.Fatal(err)
	}
	deckPath := writeDeck(t, dir, `
cells        10 10 10
cu           0.05
vacancy      0.002
duration     1e-8
seed         7
max_retries  3
potential    nnp `+potPath+`
`)
	var out bytes.Buffer
	code := realMain([]string{"-in", deckPath, "-quiet"}, &out, &out, nil)
	if code != exitRuntime {
		t.Fatalf("corrupted potential: exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "unrecoverable") {
		t.Fatalf("corruption not reported as unrecoverable:\n%s", out.String())
	}
}

// poisonOverflow sets every element's output bias to the largest float64:
// each site energy is then near MaxFloat64 and any region sum is +Inf.
// nnp.Load accepts the file, since every parameter is finite.
func poisonOverflow(pot *nnp.Potential) {
	for _, net := range pot.Nets {
		net.Layers[len(net.Layers)-1].B[0] = math.MaxFloat64
	}
}

// TestExitCodeInterrupted: a pending SIGINT/SIGTERM is honoured at the
// next snapshot boundary — final checkpoint written, exit 4.
func TestExitCodeInterrupted(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.box")
	deckPath := writeDeck(t, dir, `
cells        10 10 10
cu           0.05
vacancy      0.002
duration     1e-7
seed         11
snapshots    4
potential    eam
checkpoint   `+ckpt+`
`)
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	var out bytes.Buffer
	if code := realMain([]string{"-in", deckPath, "-quiet"}, &out, &out, sig); code != exitInterrupted {
		t.Fatalf("pending signal: exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "interrupted") {
		t.Fatalf("no interruption notice:\n%s", out.String())
	}
	if _, err := core.LoadCheckpointFile(ckpt); err != nil {
		t.Fatalf("no final checkpoint after interrupt: %v", err)
	}
}

// TestTelemetryDeckRun: the telemetry_addr and event_log deck keys —
// the endpoint banner prints, the per-phase timing table renders on a
// clean exit, and the flight recorder lands on disk as JSONL.
func TestTelemetryDeckRun(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	deckPath := writeDeck(t, dir, `
cells          8 8 8
cu             0.05
vacancy        0.002
duration       2e-8
seed           13
potential      eam
eval_cache     1024
telemetry_addr 127.0.0.1:0
event_log      `+events+`
`)
	var out bytes.Buffer
	if code := realMain([]string{"-in", deckPath, "-quiet"}, &out, &out, nil); code != exitClean {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"telemetry on http://127.0.0.1:",
		"per-phase timing:",
		"run",
		"segment",
		"evalserve:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if _, err := os.Stat(events); err != nil {
		t.Fatalf("event log not written: %v", err)
	}
}

// TestSummaryOnRuntimeFailure: the per-phase table must print on exit 1
// too — a failed run still reports where its time went.
func TestSummaryOnRuntimeFailure(t *testing.T) {
	dir := t.TempDir()
	desc := feature.Standard(units.CutoffStandard)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 8, 1}, rng.New(9))
	poisonOverflow(pot)
	potPath := filepath.Join(dir, "bad.nnp")
	if err := pot.SaveFile(potPath); err != nil {
		t.Fatal(err)
	}
	events := filepath.Join(dir, "events.jsonl")
	deckPath := writeDeck(t, dir, `
cells        10 10 10
cu           0.05
vacancy      0.002
duration     1e-8
seed         7
potential    nnp `+potPath+`
event_log    `+events+`
`)
	var out bytes.Buffer
	if code := realMain([]string{"-in", deckPath, "-quiet"}, &out, &out, nil); code != exitRuntime {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "per-phase timing:") {
		t.Fatalf("no timing table on runtime failure:\n%s", out.String())
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatalf("event log not written on failure: %v", err)
	}
	if !strings.Contains(string(data), "segment-failure") {
		t.Fatalf("flight recorder missing the failure event:\n%s", data)
	}
}

// TestSummaryOnInterrupt: exit 4 carries the same end-of-run account.
func TestSummaryOnInterrupt(t *testing.T) {
	deckPath := writeDeck(t, t.TempDir(), `
cells        8 8 8
cu           0.05
vacancy      0.002
duration     1e-7
seed         11
snapshots    4
potential    eam
`)
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	var out bytes.Buffer
	if code := realMain([]string{"-in", deckPath, "-quiet"}, &out, &out, sig); code != exitInterrupted {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "per-phase timing:") {
		t.Fatalf("no timing table on interrupt:\n%s", out.String())
	}
}

// TestSegmentSchedulePinned: the CLI advances one supervised segment of
// duration/snapshots per snapshot, and core.Run slices each segment at
// checkpoint_every. The final checkpoint therefore byte-equals a plain
// simulation with the same checkpoint settings driven by three
// Run(duration/3) calls. The interval 7e-9 does not divide the 1e-8
// segment, so every segment ends on a short chunk.
func TestSegmentSchedulePinned(t *testing.T) {
	for _, extra := range []string{"", "ranks 2 1 1\n"} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "cli.ck")
		body := "cells 10 10 10\ncu 0.05\nvacancy 0.002\nduration 3e-8\nseed 17\npotential eam\n" +
			"snapshots 3\ncheckpoint_every 7e-9\n" + extra
		deckPath := writeDeck(t, dir, body+"checkpoint "+ckpt+"\n")
		var out bytes.Buffer
		if code := realMain([]string{"-in", deckPath, "-quiet"}, &out, &out, nil); code != exitClean {
			t.Fatalf("%q: exit %d, output:\n%s", extra, code, out.String())
		}

		deck, err := input.Parse(strings.NewReader(body + "checkpoint " + filepath.Join(dir, "ref.ck") + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := deck.Finish()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := ref.Run(deck.Duration/3, nil); err != nil {
				t.Fatal(err)
			}
		}
		ref.Close()
		got, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: CLI checkpoint (%d bytes) differs from three Run(D/3) calls (%d bytes)", extra, len(got), len(want))
		}
	}
}

// TestQuietRunScansClustersOnce: with -quiet only the final snapshot
// line is printed, and it is the only Cu cluster scan of the run.
func TestQuietRunScansClustersOnce(t *testing.T) {
	deckPath := writeDeck(t, t.TempDir(), "cells 10 10 10\ncu 0.05\nvacancy 0.002\nduration 3e-8\nseed 19\npotential eam\nsnapshots 3\n")
	var out bytes.Buffer
	if code := realMain([]string{"-in", deckPath, "-quiet"}, &out, &out, nil); code != exitClean {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	scans := ""
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == telemetry.PhaseAnalyze {
			scans = f[1]
		}
	}
	if scans != "1" {
		t.Fatalf("3 quiet snapshots ran %q cluster scans, want 1:\n%s", scans, out.String())
	}
}
