package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tensorkmc/internal/kmc"
	"tensorkmc/internal/traj"
)

func openRecorder(t *testing.T, dir string, mode traj.Mode, every int) (*traj.Recorder, string) {
	t.Helper()
	path := filepath.Join(dir, "run.tkmctrj")
	rec, err := traj.Open(path, mode, every)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	return rec, path
}

func ckBytes(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrajRecordingInvisibleSerial is the record-mode contract: a
// serial run with the trajectory recorder attached must produce a
// byte-identical final checkpoint to the same run without it.
func TestTrajRecordingInvisibleSerial(t *testing.T) {
	base := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002,
		Seed: 42,
	}
	const duration = 4e-7
	// Chunk slicing is part of the trajectory, so both runs checkpoint
	// identically; only the recorder differs.
	base.CheckpointPath = filepath.Join(t.TempDir(), "off.tkmc")
	base.CheckpointEvery = duration / 4

	off := checkpointBytes(t, base, duration)

	dir := t.TempDir()
	rec, _ := openRecorder(t, dir, traj.ModeSerial, 25)
	on := base
	on.Traj = rec
	on.CheckpointPath = filepath.Join(dir, "ck.tkmc")
	onBytes := checkpointBytes(t, on, duration)
	if !bytes.Equal(off, onBytes) {
		t.Fatal("serial checkpoint differs with trajectory recording on")
	}
	if st := rec.Stats(); st.Events == 0 || st.Snapshots == 0 {
		t.Fatalf("recorder saw nothing: %+v", st)
	}
}

// TestTrajRecordingInvisibleParallel is the same contract for the
// sublattice engine: segment records must not perturb the sweep.
func TestTrajRecordingInvisibleParallel(t *testing.T) {
	base := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002,
		Seed: 42, Ranks: [3]int{2, 1, 1}, TStop: 2e-8,
	}
	const duration = 1e-7
	base.CheckpointPath = filepath.Join(t.TempDir(), "off.tkmc")
	base.CheckpointEvery = 2e-8

	off := checkpointBytes(t, base, duration)

	dir := t.TempDir()
	rec, _ := openRecorder(t, dir, traj.ModeParallel, 2)
	on := base
	on.Traj = rec
	on.CheckpointPath = filepath.Join(dir, "ck.tkmc")
	onBytes := checkpointBytes(t, on, duration)
	if !bytes.Equal(off, onBytes) {
		t.Fatal("parallel checkpoint differs with trajectory recording on")
	}
}

// TestReplaySerialToHop is the time-travel acceptance test: replaying
// the log to an interior hop must reconstruct a checkpoint
// byte-identical to a fresh run stopped right there — from the nearest
// snapshot and from the start — without an energy model.
func TestReplaySerialToHop(t *testing.T) {
	cfg := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002,
		Seed: 7,
	}
	const duration = 4e-7
	dir := t.TempDir()
	rec, logPath := openRecorder(t, dir, traj.ModeSerial, 20)
	recorded := cfg
	recorded.Traj = rec
	recorded.CheckpointPath = filepath.Join(dir, "ck.tkmc")
	recorded.CheckpointEvery = duration / 3

	sim, err := New(recorded)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(duration, nil); err != nil {
		t.Fatal(err)
	}
	final := sim.Hops()
	if final < 10 {
		t.Fatalf("run too short for an interior target: %d hops", final)
	}
	target := final / 2

	// Fresh run stopped at the target hop, same chunk slicing.
	fresh, err := New(recorded.withoutTraj(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RunToHop(duration, target); err != nil {
		t.Fatal(err)
	}
	want := ckBytes(t, fresh.Checkpoint())

	got, err := ReplayToHop(logPath, target, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, ckBytes(t, got)) {
		t.Fatal("replayed checkpoint differs from fresh run stopped at the same hop")
	}

	// From-start replay: identical state, and the observer sees every
	// hop from the log's origin.
	var seen int64
	got2, err := ReplayToHop(logPath, target, ReplayOptions{
		FromStart: true,
		Observer:  func(ev kmc.Event) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, ckBytes(t, got2)) {
		t.Fatal("from-start replay differs from nearest-snapshot replay")
	}
	if seen != target {
		t.Fatalf("observer saw %d hops, want %d", seen, target)
	}

	// Replaying past the end of the log must fail, not fabricate.
	if _, err := ReplayToHop(logPath, final+1, ReplayOptions{}); err == nil {
		t.Fatal("replay past end of log succeeded")
	}
}

// withoutTraj clones a recorded config into an equivalent unrecorded
// one (same chunk slicing, checkpoints parked elsewhere).
func (c Config) withoutTraj(t *testing.T, dir string) Config {
	t.Helper()
	c.Traj = nil
	if c.CheckpointPath != "" {
		c.CheckpointPath = filepath.Join(t.TempDir(), "fresh.tkmc")
	}
	return c
}

// TestReplayParallelToSegment replays a parallel log to an interior
// segment boundary and byte-compares against a fresh run stopped there.
func TestReplayParallelToSegment(t *testing.T) {
	cfg := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002,
		Seed: 11, Ranks: [3]int{2, 1, 1}, TStop: 2e-8,
	}
	const duration = 1.2e-7
	dir := t.TempDir()
	rec, logPath := openRecorder(t, dir, traj.ModeParallel, 3)
	recorded := cfg
	recorded.Traj = rec
	recorded.CheckpointPath = filepath.Join(dir, "ck.tkmc")
	recorded.CheckpointEvery = 2e-8

	sim, err := New(recorded)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(duration, nil); err != nil {
		t.Fatal(err)
	}

	lg, err := traj.ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var boundaries []int64
	for _, r := range lg.Records {
		if r.Kind == traj.KindSegment {
			boundaries = append(boundaries, r.Hops)
		}
	}
	if len(boundaries) < 3 {
		t.Fatalf("only %d segment boundaries recorded", len(boundaries))
	}
	target := boundaries[len(boundaries)/2]

	fresh, err := New(recorded.withoutTraj(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RunToHop(duration, target); err != nil {
		t.Fatal(err)
	}
	want := ckBytes(t, fresh.Checkpoint())

	got, err := ReplayParallelToHop(cfg, logPath, target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, ckBytes(t, got)) {
		t.Fatal("parallel replay differs from fresh run stopped at the same boundary")
	}

	// A non-boundary target has no global event order; must fail closed.
	if _, err := ReplayParallelToHop(cfg, logPath, target+1); err == nil {
		t.Fatal("replay to a non-boundary hop succeeded")
	}
}

// TestTrajRollbackOnRestore drives the supervisor integration: a
// rebuild from an earlier checkpoint (core.New with Restart, as every
// restore does) must roll the shared recorder back to that state's
// committed mark, re-record the replayed interval, and leave a log that
// still replays bit-exactly to the final state — with the recovery
// visible as a record.
func TestTrajRollbackOnRestore(t *testing.T) {
	cfg := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.0134, VacancyFraction: 0.002,
		Seed: 21,
	}
	const half = 2e-7
	dir := t.TempDir()
	rec, logPath := openRecorder(t, dir, traj.ModeSerial, 0)
	recorded := cfg
	recorded.Traj = rec
	recorded.CheckpointPath = filepath.Join(dir, "ck.tkmc")
	recorded.CheckpointEvery = half / 2

	sim, err := New(recorded)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(half, nil); err != nil {
		t.Fatal(err)
	}
	mid := sim.Checkpoint()
	if _, err := sim.Run(half, nil); err != nil {
		t.Fatal(err)
	}

	// Crash-and-restore: rebuild from the mid checkpoint with the same
	// recorder, exactly as supervise.restoreFrom does.
	restoreCfg := recorded
	restoreCfg.Restart = mid
	sim2, err := New(restoreCfg)
	if err != nil {
		t.Fatalf("restore with live recorder: %v", err)
	}
	defer sim2.Close()
	if _, err := sim2.Run(half, nil); err != nil {
		t.Fatal(err)
	}
	target := sim2.Hops() // inside the re-recorded interval
	if target <= mid.Hops {
		t.Fatalf("recovered run made no progress: %d hops", target)
	}

	// The comparator is an uninterrupted fresh run stopped right after
	// the target hop: the re-recorded interval must splice bit-exactly.
	fresh, err := New(recorded.withoutTraj(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RunToHop(2*half, target); err != nil {
		t.Fatal(err)
	}
	finalWant := ckBytes(t, fresh.Checkpoint())

	lg, err := traj.ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	recoveries := 0
	for _, r := range lg.Records {
		if r.Kind == traj.KindRecovery {
			recoveries++
		}
	}
	if recoveries != 1 {
		t.Fatalf("log has %d recovery records, want 1", recoveries)
	}
	got, err := ReplayToHop(logPath, target, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalWant, ckBytes(t, got)) {
		t.Fatal("post-recovery log does not replay to the final state")
	}

	// A rollback to a state the log never committed must fail the
	// rebuild (fail closed), not silently corrupt the log.
	bad := recorded
	bogus := *mid
	bogus.Hops += 3
	bad.Restart = &bogus
	if _, err := New(bad); err == nil {
		t.Fatal("restore from an uncommitted state attached to the log")
	}
}

// TestTrajModeMismatch rejects a recorder whose log grain does not
// match the run.
func TestTrajModeMismatch(t *testing.T) {
	dir := t.TempDir()
	rec, _ := openRecorder(t, dir, traj.ModeParallel, 0)
	cfg := Config{
		Cells: [3]int{6, 6, 6}, CuFraction: 0.01, VacancyFraction: 0.005,
		Seed: 3, Traj: rec,
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("serial run accepted a parallel log")
	}
}

// TestTrajSnapshotFilesLandNextToLog pins the snapshot naming contract
// replay depends on.
func TestTrajSnapshotFilesLandNextToLog(t *testing.T) {
	dir := t.TempDir()
	rec, logPath := openRecorder(t, dir, traj.ModeSerial, 0)
	cfg := Config{
		Cells: [3]int{6, 6, 6}, CuFraction: 0.01, VacancyFraction: 0.005,
		Seed: 3, Traj: rec,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := os.Stat(logPath + ".snap-0"); err != nil {
		t.Fatalf("initial snapshot missing: %v", err)
	}
}

// RunToHop advances the simulation exactly like Run — the same
// checkpoint-interval chunk slicing, which is part of the trajectory —
// but stops immediately after the target hop and writes no checkpoints.
// It is the fresh-run comparator for replay determinism: a replayed
// checkpoint must byte-match a fresh run stopped here. On parallel runs
// the target must land on a chunk boundary.
func (s *Simulation) RunToHop(duration float64, target int64) error {
	if s.Hops() > target {
		return fmt.Errorf("core: already past hop %d (at %d)", target, s.Hops())
	}
	err := s.eachChunk(duration, func(chunk float64) error {
		if s.Hops() >= target {
			return nil
		}
		if s.engine != nil {
			limit := s.engine.Time() + chunk
			for s.engine.Time() < limit && s.engine.Steps() < target {
				if _, ok := s.engine.Step(limit); !ok {
					break
				}
			}
			return nil
		}
		if err := s.runChunk(chunk, nil, s.traceRoot); err != nil {
			return err
		}
		if s.Hops() > target {
			return fmt.Errorf("core: chunk overshot hop %d (at %d); target is not a chunk boundary", target, s.Hops())
		}
		return nil
	})
	if err != nil {
		return err
	}
	if s.Hops() != target {
		return fmt.Errorf("core: run ended at hop %d, before target %d", s.Hops(), target)
	}
	return nil
}
