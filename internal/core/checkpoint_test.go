package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tensorkmc/internal/fault"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/mpi"
	"tensorkmc/internal/rng"
)

func testBox(t *testing.T) *lattice.Box {
	t.Helper()
	box := lattice.NewBox(8, 8, 8, 2.87)
	lattice.FillRandomAlloy(box, 0.05, 0.003, rng.New(11))
	return box
}

func TestCheckpointRoundTrip(t *testing.T) {
	box := testBox(t)
	want := &Checkpoint{
		Box:       box,
		Time:      3.25e-7,
		Hops:      4211,
		Segment:   9,
		HasRNG:    true,
		RNG:       [4]uint64{1, 2, 3, 4},
		Vacancies: lattice.Vacancies(box),
	}
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Box.Equal(want.Box) {
		t.Fatal("box not preserved")
	}
	if got.Time != want.Time || got.Hops != want.Hops || got.Segment != want.Segment {
		t.Fatalf("counters not preserved: %+v", got)
	}
	if !got.HasRNG || got.RNG != want.RNG {
		t.Fatalf("RNG state not preserved: %+v", got.RNG)
	}
	if len(got.Vacancies) != len(want.Vacancies) {
		t.Fatalf("vacancy order length %d, want %d", len(got.Vacancies), len(want.Vacancies))
	}
	for i := range got.Vacancies {
		if got.Vacancies[i] != want.Vacancies[i] {
			t.Fatalf("vacancy %d: %v != %v", i, got.Vacancies[i], want.Vacancies[i])
		}
	}
}

func TestCheckpointNoRNGRoundTrip(t *testing.T) {
	want := &Checkpoint{Box: testBox(t), Time: 1e-8, Hops: 3, Segment: 2}
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasRNG || got.Vacancies != nil {
		t.Fatalf("parallel checkpoint grew serial state: %+v", got)
	}
	if got.Segment != 2 {
		t.Fatalf("segment = %d", got.Segment)
	}
}

// TestCheckpointCorruptionDetected: any single-byte corruption of the
// body must fail the CRC check, and truncation or trailing bytes must be
// rejected — never a silent load of garbage state.
func TestCheckpointCorruptionDetected(t *testing.T) {
	c := &Checkpoint{Box: testBox(t), Time: 1e-8, Hops: 5, HasRNG: true, RNG: [4]uint64{9, 8, 7, 6}}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, off := range []int{8, 16, 40, len(good) / 2, len(good) - 5} {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x40
		if _, err := LoadCheckpoint(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at offset %d loaded silently", off)
		}
	}
	for _, cut := range []int{4, 20, len(good) - 2} {
		if _, err := LoadCheckpoint(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation to %d bytes loaded silently", cut)
		}
	}
	if _, err := LoadCheckpoint(bytes.NewReader(append(append([]byte(nil), good...), 0))); err == nil {
		t.Error("trailing garbage accepted")
	}
	// The mismatch error should say it is a checksum problem.
	mut := append([]byte(nil), good...)
	mut[len(good)/2] ^= 1
	if _, err := LoadCheckpoint(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("body corruption not reported as a checksum failure: %v", err)
	}
}

// TestCheckpointLegacyBoxAccepted: pre-existing TKMCBOX1 restart files
// load as box-only checkpoints.
func TestCheckpointLegacyBoxAccepted(t *testing.T) {
	box := testBox(t)
	var buf bytes.Buffer
	if err := box.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Box.Equal(box) {
		t.Fatal("legacy box not preserved")
	}
	if c.Time != 0 || c.Hops != 0 || c.HasRNG || c.Vacancies != nil {
		t.Fatalf("legacy checkpoint fabricated state: %+v", c)
	}
}

// hopSeq records the observable trajectory: one line per executed hop.
func hopSeq(seq *[]string) func(kmc.Event) {
	return func(ev kmc.Event) {
		*seq = append(*seq, fmt.Sprintf("%d %d %v->%v %.17g", ev.Slot, ev.Direction, ev.From, ev.To, ev.DeltaT))
	}
}

// TestSerialResumeBitExact is the trajectory-equivalence acceptance
// test: checkpoint mid-run, resume in a fresh process-equivalent
// simulation, and the hop sequence, clock, hop count and final box must
// be identical to an uninterrupted run with the same segmentation.
func TestSerialResumeBitExact(t *testing.T) {
	cfg := Config{Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 31}
	const half = 2e-8

	// Reference: uninterrupted (same Run segmentation on both sides —
	// segment boundaries clip events and are part of the trajectory).
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refSeq []string
	if _, err := ref.Run(half, hopSeq(&refSeq)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(half, hopSeq(&refSeq)); err != nil {
		t.Fatal(err)
	}

	// Interrupted: first half, checkpoint to disk, discard the
	// simulation, reload, second half.
	path := filepath.Join(t.TempDir(), "ck.tkmc")
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	if _, err := s1.Run(half, hopSeq(&seq)); err != nil {
		t.Fatal(err)
	}
	if err := s1.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Restart = ck
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Time() != s1.Time() || s2.Hops() != s1.Hops() {
		t.Fatalf("restored clock (%v, %d) != checkpointed (%v, %d)", s2.Time(), s2.Hops(), s1.Time(), s1.Hops())
	}
	if _, err := s2.Run(half, hopSeq(&seq)); err != nil {
		t.Fatal(err)
	}

	if len(seq) != len(refSeq) {
		t.Fatalf("resumed trajectory has %d hops, reference %d", len(seq), len(refSeq))
	}
	for i := range seq {
		if seq[i] != refSeq[i] {
			t.Fatalf("hop %d diverged:\nresumed:   %s\nreference: %s", i, seq[i], refSeq[i])
		}
	}
	if s2.Time() != ref.Time() || s2.Hops() != ref.Hops() {
		t.Fatalf("final clock (%v, %d) != reference (%v, %d)", s2.Time(), s2.Hops(), ref.Time(), ref.Hops())
	}
	if !s2.Box().Equal(ref.Box()) {
		t.Fatal("final box differs from the uninterrupted run")
	}
}

// TestParallelResumeBitExact: the parallel engine reseeds each segment
// from Seed + segment, so a checkpoint carrying box + clock + segment
// counter resumes the identical trajectory.
func TestParallelResumeBitExact(t *testing.T) {
	cfg := Config{
		Cells: [3]int{16, 16, 16}, CuFraction: 0.03, VacancyFraction: 0.001,
		Seed: 33, Ranks: [3]int{2, 2, 1},
	}
	const half = 5e-8

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(half, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(half, nil); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.tkmc")
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(half, nil); err != nil {
		t.Fatal(err)
	}
	if err := s1.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.HasRNG || ck.Vacancies != nil {
		t.Fatal("parallel checkpoint carries serial-only state")
	}
	cfg2 := cfg
	cfg2.Restart = ck
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(half, nil); err != nil {
		t.Fatal(err)
	}
	if s2.Time() != ref.Time() || s2.Hops() != ref.Hops() {
		t.Fatalf("resumed (%v, %d) != reference (%v, %d)", s2.Time(), s2.Hops(), ref.Time(), ref.Hops())
	}
	if !s2.Box().Equal(ref.Box()) {
		t.Fatal("resumed parallel trajectory diverged")
	}
}

// TestCheckpointEveryWritesDuringRun: periodic in-run checkpointing
// driven by the deck keys, with .bak rotation of the previous interval.
func TestCheckpointEveryWritesDuringRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.tkmc")
	cfg := Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 35,
		CheckpointPath: path, CheckpointEvery: 1e-8,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(4e-8, nil); err != nil {
		t.Fatal(err)
	}
	final, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if final.Time != s.Time() || final.Hops != s.Hops() {
		t.Fatalf("final checkpoint (%v, %d) != simulation (%v, %d)", final.Time, final.Hops, s.Time(), s.Hops())
	}
	if !final.Box.Equal(s.Box()) {
		t.Fatal("final checkpoint box differs")
	}
	prev, err := LoadCheckpointFile(path + ".bak")
	if err != nil {
		t.Fatalf("rotated previous checkpoint unreadable: %v", err)
	}
	if prev.Time >= final.Time {
		t.Fatalf("backup clock %v not earlier than final %v", prev.Time, final.Time)
	}
}

// TestCrashMidWriteLeavesLastGood is the writer-kill acceptance test: an
// injected write failure mid-checkpoint must leave the previous
// checkpoint loadable — both the primary (never replaced) and after a
// hypothetical rename crash, the .bak.
func TestCrashMidWriteLeavesLastGood(t *testing.T) {
	errInjected := errors.New("injected write error")
	path := filepath.Join(t.TempDir(), "ck.tkmc")
	good := &Checkpoint{Box: testBox(t), Time: 7e-8, Hops: 123}
	if err := good.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	next := &Checkpoint{Box: testBox(t), Time: 9e-8, Hops: 456}
	err := fault.WriteFileAtomic(path, true, func(w io.Writer) error {
		// The first 64 bytes reach the file, then the write fails.
		var buf bytes.Buffer
		if err := next.Save(&buf); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()[:64]); err != nil {
			return err
		}
		return errInjected
	})
	if !errors.Is(err, errInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	got, err := LoadCheckpointOrBackup(path)
	if err != nil {
		t.Fatalf("no loadable checkpoint after crashed write: %v", err)
	}
	if got.Time != good.Time || got.Hops != good.Hops || !got.Box.Equal(good.Box) {
		t.Fatal("recovered checkpoint is not the last good state")
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("crashed write leaked temp file %s", e.Name())
		}
	}
}

// TestLoadCheckpointOrBackupFallsBack: a corrupted primary falls back to
// the rotated .bak; with both bad, the error reports both causes.
func TestLoadCheckpointOrBackupFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.tkmc")
	first := &Checkpoint{Box: testBox(t), Time: 1e-8, Hops: 10}
	if err := first.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	second := &Checkpoint{Box: testBox(t), Time: 2e-8, Hops: 20}
	if err := second.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary in place (flip one payload byte).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointOrBackup(path)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if got.Time != first.Time || got.Hops != first.Hops {
		t.Fatalf("fallback loaded (%v, %d), want the rotated first checkpoint", got.Time, got.Hops)
	}
	// Both corrupt: the error must mention the backup too.
	if err := os.WriteFile(path+".bak", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointOrBackup(path); err == nil || !strings.Contains(err.Error(), "backup") {
		t.Fatalf("double failure not reported: %v", err)
	}
}

// TestStalledRankRecoveryFromCheckpoint is the end-to-end fault story:
// a parallel run checkpoints, a rank dies (chaos stall) and the engine
// aborts with a named-rank diagnostic instead of hanging, then a fresh
// simulation reloads the last-good checkpoint and finishes — matching
// the uninterrupted reference exactly.
func TestStalledRankRecoveryFromCheckpoint(t *testing.T) {
	cfg := Config{
		Cells: [3]int{16, 16, 16}, CuFraction: 0.03, VacancyFraction: 0.001,
		Seed: 37, Ranks: [3]int{2, 2, 1},
	}
	const half = 5e-8

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(half, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(half, nil); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.tkmc")
	cfgA := cfg
	cfgA.CheckpointPath = path
	s1, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(half, nil); err != nil {
		t.Fatal(err)
	}

	// Rank 1 dies; the next segment must abort with a diagnostic.
	chaos := mpi.NewChaos()
	chaos.StallRank(1)
	s1.Cfg.Chaos = chaos
	s1.Cfg.ExchangeTimeout = 100 * time.Millisecond
	_, err = s1.Run(half, nil)
	if err == nil {
		t.Fatal("segment with a dead rank did not fail")
	}
	var stall *mpi.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("abort does not carry the stall diagnostic: %v", err)
	}
	if len(stall.Missing) != 1 || stall.Missing[0] != 1 {
		t.Fatalf("diagnostic names ranks %v, want [1]", stall.Missing)
	}

	// Recovery: reload the last-good checkpoint into a fresh simulation
	// (healthy fabric) and run the second half.
	ck, err := LoadCheckpointOrBackup(path)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfg
	cfgB.Restart = ck
	s2, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(half, nil); err != nil {
		t.Fatal(err)
	}
	if s2.Time() != ref.Time() || s2.Hops() != ref.Hops() {
		t.Fatalf("recovered run (%v, %d) != reference (%v, %d)", s2.Time(), s2.Hops(), ref.Time(), ref.Hops())
	}
	if !s2.Box().Equal(ref.Box()) {
		t.Fatal("recovered trajectory diverged from the uninterrupted reference")
	}
}
