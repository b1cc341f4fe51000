package traj

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tensorkmc/internal/frame"
)

func openT(t *testing.T, path string, mode Mode, every int) *Recorder {
	t.Helper()
	r, err := Open(path, mode, every)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func noopSave(path string) error { return os.WriteFile(path, []byte("snap"), 0o644) }

func TestRoundTripSerial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeSerial, 0)
	if r.Begun() {
		t.Fatal("fresh log reports Begun")
	}
	if err := r.Begin(5, 1.5e-9); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := r.Snapshot(5, 1.5e-9, noopSave); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := r.Commit(5, 1.5e-9); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	r.Hop(0, 3, 1e-10)
	r.Hop(1, 7, 2e-10)
	r.Clip(2e-9)
	if err := r.Commit(7, 2e-9); err != nil {
		t.Fatalf("Commit 2: %v", err)
	}

	lg, err := ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if !lg.Begun || lg.Mode != ModeSerial || lg.StartHops != 5 || lg.StartTime != 1.5e-9 {
		t.Fatalf("bad header state: %+v", lg)
	}
	if lg.Truncated {
		t.Fatal("clean log reported truncated")
	}
	if lg.Hops != 7 || lg.Time != 2e-9 {
		t.Fatalf("final state hops=%d t=%v", lg.Hops, lg.Time)
	}
	kinds := []Kind{KindSnapshot, KindHop, KindHop, KindClip}
	if len(lg.Records) != len(kinds) {
		t.Fatalf("got %d records, want %d: %+v", len(lg.Records), len(kinds), lg.Records)
	}
	for i, k := range kinds {
		if lg.Records[i].Kind != k {
			t.Fatalf("record %d kind %v, want %v", i, lg.Records[i].Kind, k)
		}
	}
	if h := lg.Records[1]; h.Slot != 0 || h.Dir != 3 || h.DeltaT != 1e-10 || h.Hops != 6 {
		t.Fatalf("bad hop record: %+v", h)
	}
	if c := lg.Records[3]; c.Limit != 2e-9 || c.Time != 2e-9 {
		t.Fatalf("bad clip record: %+v", c)
	}
	if _, err := os.Stat(path + ".snap-5"); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
}

// TestHopRecordBuffered: Recorder.Hop rides the engine's hot path, so it
// allocates nothing and writes nothing until flushThreshold (64 KiB) of
// records are buffered. The log then grows by one frame of at least that
// size at a time, and every hop reads back.
func TestHopRecordBuffered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeSerial, 0)
	if err := r.Begin(0, 0); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	const hops = 22000
	last, flushes := size(), 0
	if last != headerLen {
		t.Fatalf("fresh log holds %d B, want the %d-byte header", last, headerLen)
	}
	for i := 0; i < hops; i++ {
		r.Hop(i%64, i%8, 1e-9)
		grown := size() - last
		last += grown
		switch {
		case grown == 0 && len(r.buf) >= flushThreshold:
			t.Fatalf("hop %d: %d B buffered and nothing written", i, len(r.buf))
		case grown != 0 && (grown < flushThreshold || len(r.buf) != 0):
			t.Fatalf("hop %d: log grew by %d B with %d B still buffered, want one frame of at least %d B", i, grown, len(r.buf), flushThreshold)
		case grown != 0:
			flushes++
		}
	}
	if flushes < 3 {
		t.Fatalf("%d hops flushed %d frames, want at least 3", hops, flushes)
	}

	i := 0
	if allocs := testing.AllocsPerRun(hops, func() { r.Hop(i%64, i%8, 1e-9); i++ }); allocs != 0 {
		t.Fatalf("Recorder.Hop allocates %v times per hop, want 0", allocs)
	}
	if err := r.Commit(r.hops, r.time); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	lg, err := ReadLog(path)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if want := int64(hops + i); lg.Hops != want || len(lg.Records) != hops+i {
		t.Fatalf("log reads back %d hops in %d records, want %d", lg.Hops, len(lg.Records), want)
	}
}

func TestReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeSerial, 0)
	if err := r.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	r.Hop(0, 1, 1e-10)
	if err := r.Commit(1, 1e-10); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2 := openT(t, path, ModeSerial, 0)
	if !r2.Begun() {
		t.Fatal("reopened log lost Begun")
	}
	if err := r2.Begin(1, 1e-10); err == nil {
		t.Fatal("second Begin accepted")
	}
	r2.Hop(0, 2, 1e-10)
	if err := r2.Commit(2, 2e-10); err != nil {
		t.Fatalf("Commit after reopen: %v", err)
	}
	lg, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Hops != 2 || len(lg.Records) != 2 {
		t.Fatalf("combined log hops=%d records=%d", lg.Hops, len(lg.Records))
	}
}

func TestModeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeParallel, 0)
	if err := r.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(0, 0); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := Open(path, ModeSerial, 0); err == nil {
		t.Fatal("serial open of parallel log accepted")
	}
}

func TestRollbackRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeSerial, 0)
	if err := r.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(0, 0); err != nil {
		t.Fatal(err)
	}
	r.Hop(0, 1, 1e-10)
	r.Clip(5e-10)
	if err := r.Commit(1, 5e-10); err != nil {
		t.Fatal(err)
	}
	r.Hop(0, 2, 1e-10)
	r.Clip(1e-9)
	if err := r.Commit(2, 1e-9); err != nil {
		t.Fatal(err)
	}

	// A restore re-enters the state after the first commit; the second
	// chunk is re-recorded differently (as after a real recovery).
	if err := r.Rollback(1, 5e-10); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	r.Hop(0, 4, 2e-10)
	r.Clip(1e-9)
	if err := r.Commit(2, 1e-9); err != nil {
		t.Fatal(err)
	}

	lg, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]Kind, len(lg.Records))
	for i, rec := range lg.Records {
		kinds[i] = rec.Kind
	}
	want := []Kind{KindHop, KindClip, KindRecovery, KindHop, KindClip}
	if len(kinds) != len(want) {
		t.Fatalf("records %v, want kinds %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("record %d kind %v, want %v", i, kinds[i], want[i])
		}
	}
	if lg.Records[3].Dir != 4 {
		t.Fatalf("re-recorded hop dir %d, want 4", lg.Records[3].Dir)
	}
	// Rollback to a state the log never committed must fail closed.
	if err := r.Rollback(7, 3e-9); err == nil {
		t.Fatal("rollback to uncommitted state accepted")
	}
}

func TestRollbackIsLazy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeSerial, 0)
	if err := r.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(0, 0); err != nil {
		t.Fatal(err)
	}
	r.Hop(0, 1, 1e-10)
	if err := r.Commit(1, 1e-10); err != nil {
		t.Fatal(err)
	}
	r.Hop(1, 1, 1e-10)
	if err := r.Commit(2, 2e-10); err != nil {
		t.Fatal(err)
	}
	// A failed restore candidate rolls back to an early mark but never
	// writes; a later candidate must still find the later mark.
	if err := r.Rollback(1, 1e-10); err != nil {
		t.Fatal(err)
	}
	if err := r.Rollback(2, 2e-10); err != nil {
		t.Fatalf("later mark burned by lazy rollback: %v", err)
	}
}

func TestCommitMismatchSticks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeSerial, 0)
	if err := r.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	r.Hop(0, 1, 1e-10)
	if err := r.Commit(5, 1e-10); err == nil {
		t.Fatal("commit with wrong hop count accepted")
	}
	if err := r.Commit(1, 1e-10); err == nil {
		t.Fatal("recorder not sticky after state mismatch")
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeSerial, 0)
	if err := r.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	r.Hop(0, 1, 1e-10)
	if err := r.Commit(1, 1e-10); err != nil {
		t.Fatal(err)
	}
	r.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial frame at the tail.
	torn := append(append([]byte{}, good...), 0x40, 0x00, 0x00, 0x00, 0xde, 0xad)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLog(path)
	if err != nil {
		t.Fatalf("torn log must still decode: %v", err)
	}
	if !lg.Truncated || lg.Hops != 1 {
		t.Fatalf("torn decode: truncated=%v hops=%d", lg.Truncated, lg.Hops)
	}
	r2 := openT(t, path, ModeSerial, 0)
	r2.Hop(1, 2, 1e-10)
	if err := r2.Commit(2, 2e-10); err != nil {
		t.Fatal(err)
	}
	r2.Close()
	lg, err = ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Truncated || lg.Hops != 2 {
		t.Fatalf("after repair: truncated=%v hops=%d", lg.Truncated, lg.Hops)
	}
}

func TestCorruptFrameFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeSerial, 0)
	if err := r.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(0, 0); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// Hand-frame a garbage opcode with a valid CRC: corruption inside a
	// valid frame is an encoder lie, not a torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = frame.AppendFrame(data, []byte{0xff, 0x01, 0x02})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(path); err == nil {
		t.Fatal("garbage opcode in CRC-valid frame decoded")
	}
	if _, err := Open(path, ModeSerial, 0); err == nil {
		t.Fatal("recorder reopened a log with corrupt valid frames")
	}
}

func TestParallelSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tkmctrj")
	r := openT(t, path, ModeParallel, 2)
	if err := r.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	r.Segment(1, 1e-8, 1e-8, 40)
	if r.SnapshotDue() {
		t.Fatal("snapshot due after one segment with every=2")
	}
	r.Segment(2, 1e-8, 2e-8, 81)
	if !r.SnapshotDue() {
		t.Fatal("snapshot not due after two segments with every=2")
	}
	if err := r.Snapshot(81, 2e-8, noopSave); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(81, 2e-8); err != nil {
		t.Fatal(err)
	}
	lg, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Mode != ModeParallel || lg.Hops != 81 || lg.Time != 2e-8 {
		t.Fatalf("parallel log state: %+v", lg)
	}
	if s := lg.Records[1]; s.Kind != KindSegment || s.Seg != 2 || s.Hops != 81 {
		t.Fatalf("segment record: %+v", s)
	}
}

func TestDecodeRejectsNonLog(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("short"), []byte("NOTATRAJ garbage")} {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Fatalf("decoded %q", data)
		}
	}
}
