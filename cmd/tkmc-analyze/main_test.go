package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tensorkmc/internal/core"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/traj"
)

func TestAnalyzeSnapshot(t *testing.T) {
	dir := t.TempDir()
	box := lattice.NewBox(8, 8, 8, 2.87)
	lattice.FillRandomAlloy(box, 0.05, 0.002, rng.New(1))
	// A deliberate pair for the cluster stats.
	box.Set(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Cu)
	box.Set(lattice.Vec{X: 5, Y: 5, Z: 5}, lattice.Cu)
	snap := filepath.Join(dir, "state.box")
	if err := fault.WriteFileAtomic(snap, false, box.Save); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	xyz := filepath.Join(dir, "out.xyz")
	if err := run(&sb, snap, 2, xyz, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"composition:", "clusters (2NN adjacency):", "size histogram", "wrote"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(xyz)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Cu ") {
		t.Fatal("XYZ export missing Cu atoms")
	}
}

func TestAnalyzeMissingFile(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, "/nonexistent.box", 2, "", false); err == nil {
		t.Fatal("expected error")
	}
}

// TestReplaySubcommand records a serial run into a trajectory log, then
// time-travels it to the midpoint: the reconstructed checkpoint must
// land exactly on the target hop and the report must include the
// replayed diffusivity.
func TestReplaySubcommand(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "run.tkmctrj")
	rec, err := traj.Open(logPath, traj.ModeSerial, 25)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.New(core.Config{
		Cells: [3]int{8, 8, 8}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 3,
		Traj: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(4e-8, nil); err != nil {
		t.Fatal(err)
	}
	hops := sim.Hops()
	sim.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if hops < 2 {
		t.Fatalf("run too short to replay: %d hops", hops)
	}

	target := hops / 2
	out := filepath.Join(dir, "replayed.tkmc")
	var sb strings.Builder
	if err := runReplay(&sb, &sb, []string{
		"-log", logPath, "-to-hop", fmt.Sprint(target), "-out", out,
	}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replayed", "clusters", "diffusivity", "wrote"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("replay output missing %q:\n%s", want, sb.String())
		}
	}
	ck, err := core.LoadCheckpointFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Hops != target {
		t.Fatalf("replayed checkpoint at hop %d, want %d", ck.Hops, target)
	}

	// A target past the end of the log must be a hard error.
	if err := runReplay(&sb, &sb, []string{"-log", logPath, "-to-hop", fmt.Sprint(hops + 100)}); err == nil {
		t.Fatal("replay past the end of the log succeeded")
	}
}

// TestShellsRefusedBeforeWork: a -shells value cluster.Analyze does not
// define is refused, naming the flag, before any input is read. The box
// form exits 2 with nothing on stdout; the replay form fails before it
// opens the log.
func TestShellsRefusedBeforeWork(t *testing.T) {
	dir := t.TempDir()
	box := lattice.NewBox(6, 6, 6, 2.87)
	lattice.FillRandomAlloy(box, 0.05, 0.002, rng.New(1))
	snap := filepath.Join(dir, "state.box")
	if err := fault.WriteFileAtomic(snap, false, box.Save); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"0", "3", "-1"} {
		var stdout, stderr strings.Builder
		if code := realMain([]string{"-box", snap, "-shells", n}, &stdout, &stderr); code != 2 {
			t.Errorf("-box -shells %s: exit %d, want 2", n, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-shells") {
			t.Errorf("-box -shells %s: stdout %q, stderr %q", n, stdout.String(), stderr.String())
		}
		err := runReplay(&strings.Builder{}, &strings.Builder{}, []string{"-log", filepath.Join(dir, "absent.tkmctrj"), "-to-hop", "1", "-shells", n})
		if err == nil || !strings.Contains(err.Error(), "-shells") {
			t.Errorf("replay -shells %s: err = %v", n, err)
		}
	}
	var stdout strings.Builder
	if code := realMain([]string{"-box", snap, "-shells", "1"}, &stdout, &strings.Builder{}); code != 0 ||
		!strings.Contains(stdout.String(), "clusters (1NN adjacency)") {
		t.Fatalf("-shells 1: exit %d, output %q", code, stdout.String())
	}
}

// TestSubcommandUsageExits2: a mistake in how replay or trace is invoked
// exits 2, the usage code of the box form, with its diagnostic on the
// given stderr; replay -h exits 0. A failure of the work itself stays
// exit 1. realMain returns every code, so none of these ends the test
// process.
func TestSubcommandUsageExits2(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent.tkmctrj")
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"replay", "-log", absent}, 2, "-to-hop"},
		{[]string{"replay", "-log", absent, "-to-hop", "1", "-shells", "3"}, 2, "-shells"},
		{[]string{"replay", "-bogus"}, 2, "-bogus"},
		{[]string{"replay", "-h"}, 0, "-to-hop"},
		{[]string{"trace", "abc"}, 2, "trace wants a trace ID"},
		{[]string{"trace", "not-hex", absent}, 2, "not-hex"},
		{[]string{"replay", "-log", absent, "-to-hop", "1"}, 1, "absent.tkmctrj"},
	} {
		var stdout, stderr strings.Builder
		code := realMain(c.args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d naming %q", c.args, code, stderr.String(), c.code, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout", c.args, stdout.String())
		}
	}
}
