package ctl

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tensorkmc/internal/telemetry"
)

func testRec(id string, seq uint64, st JobState) JobRecord {
	return JobRecord{ID: id, Seq: seq, State: st, Deck: "cells 4 4 4\nduration 1e-9\n"}
}

// TestWALRoundTrip: records appended before close replay on reopen, in
// order, with the LSN sequence continuing where it left off.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.wal")
	w, recs, err := openWAL(path, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	for i := 1; i <= 3; i++ {
		if _, err := w.append(testRec("job-1", 1, StateQueued)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := openWAL(path, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	if lsn, err := w2.append(testRec("job-1", 1, StateRunning)); err != nil || lsn != 4 {
		t.Fatalf("post-replay append: lsn=%d err=%v, want 4", lsn, err)
	}
}

// TestWALTornTail: a crash mid-append leaves a partial final frame;
// reopen must keep every whole record, drop the torn one, and accept new
// appends on a clean tail.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.wal")
	w, _, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.append(testRec("job-1", 1, StateQueued)); err != nil {
			t.Fatal(err)
		}
	}
	w.close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 12; cut += 5 { // tear off various partial-frame lengths
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := openWAL(torn, nil)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut=%d: replayed %d records, want 2", cut, len(recs))
		}
		if _, err := w2.append(testRec("job-2", 2, StateQueued)); err != nil {
			t.Fatalf("cut=%d: append after tear: %v", cut, err)
		}
		w2.close()
		_, recs, err = openWAL(torn, nil)
		if err != nil || len(recs) != 3 {
			t.Fatalf("cut=%d: re-replay got %d records err=%v, want 3", cut, len(recs), err)
		}
	}
}

// TestWALCorruptRecord: a bit-rotted record fails its CRC; replay stops
// at the last whole record before it rather than returning garbage.
func TestWALCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.wal")
	w, _, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.append(testRec("job-1", 1, StateQueued))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	off := fi.Size() // just past record 1
	w.append(testRec("job-1", 1, StateRunning))
	w.append(testRec("job-1", 1, StateCompleted))
	w.close()

	raw, _ := os.ReadFile(path)
	raw[off+10] ^= 0xff // flip a payload byte inside record 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Job.State != StateQueued {
		t.Fatalf("replayed %d records past corruption, want 1 (queued)", len(recs))
	}
}

// TestWALShortHeader: a crash between file creation and the header
// write becoming durable leaves 0-7 bytes. Nothing acknowledged can
// live in a header-only file, so open must reset and re-stamp it, not
// refuse to start.
func TestWALShortHeader(t *testing.T) {
	for cut := 0; cut < len(walMagic); cut++ {
		path := filepath.Join(t.TempDir(), "ctl.wal")
		if err := os.WriteFile(path, []byte(walMagic)[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := openWAL(path, nil)
		if err != nil {
			t.Fatalf("%d-byte header: %v", cut, err)
		}
		if len(recs) != 0 {
			t.Fatalf("%d-byte header replayed %d records", cut, len(recs))
		}
		if _, err := w.append(testRec("job-1", 1, StateQueued)); err != nil {
			t.Fatalf("%d-byte header: append after reset: %v", cut, err)
		}
		w.close()
		if _, recs, err = openWAL(path, nil); err != nil || len(recs) != 1 {
			t.Fatalf("%d-byte header: re-replay got %d records err=%v", cut, len(recs), err)
		}
	}
}

// TestWALBadMagic: a foreign file is refused outright, not replayed.
func TestWALBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL0xxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(path, nil); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestSnapshotRoundTrip: compaction folds the store into a durable
// snapshot, resets the log, and a reopen sees snapshot + empty tail.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ctl.wal")
	snapPath := filepath.Join(dir, "ctl.snap")
	w, _, err := openWAL(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.append(testRec("job-1", 1, StateQueued))
	}
	st := snapshotState{NextSeq: 7, Jobs: []JobRecord{testRec("job-1", 1, StateRunning)}}
	if err := w.compact(st, snapPath); err != nil {
		t.Fatal(err)
	}
	if w.n != 0 {
		t.Fatalf("post-compaction record count %d", w.n)
	}
	// Appends after compaction land in the fresh log with continuing LSNs.
	if lsn, err := w.append(testRec("job-1", 1, StatePreempted)); err != nil || lsn != 6 {
		t.Fatalf("post-compaction append lsn=%d err=%v", lsn, err)
	}
	w.close()

	snap, ok, err := loadSnapshot(snapPath)
	if err != nil || !ok {
		t.Fatalf("loadSnapshot: ok=%v err=%v", ok, err)
	}
	if snap.LSN != 5 || snap.NextSeq != 7 || len(snap.Jobs) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	_, recs, err := openWAL(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 6 {
		t.Fatalf("fresh tail replayed %+v", recs)
	}
}

// TestSnapshotBackupFallback: a corrupted primary snapshot falls back to
// the rotated .bak (the TKMCBOX2 discipline).
func TestSnapshotBackupFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.snap")
	if err := saveSnapshot(path, snapshotState{LSN: 1, NextSeq: 2}); err != nil {
		t.Fatal(err)
	}
	if err := saveSnapshot(path, snapshotState{LSN: 9, NextSeq: 4}); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	snap, ok, err := loadSnapshot(path)
	if err != nil || !ok {
		t.Fatalf("fallback load: ok=%v err=%v", ok, err)
	}
	if snap.LSN != 1 {
		t.Fatalf("fallback returned LSN %d, want the .bak's 1", snap.LSN)
	}
}

// TestSnapshotMissing: no snapshot at all is first-boot, not an error.
func TestSnapshotMissing(t *testing.T) {
	_, ok, err := loadSnapshot(filepath.Join(t.TempDir(), "none.snap"))
	if err != nil || ok {
		t.Fatalf("missing snapshot: ok=%v err=%v", ok, err)
	}
}

// TestOversizedSubmissionRefused: JSON escapes <, > and & as six-byte
// \u00XX, so a deck under the 1 MiB HTTP limit can encode to a WAL
// record over the 4 MiB frame cap. Such a record must be refused before
// it is written — a 400, not an acknowledged job that replay would then
// drop together with every record after it.
func TestOversizedSubmissionRefused(t *testing.T) {
	dir := t.TempDir()
	p := openTestPlane(t, Config{Dir: dir})
	big := testDeck("bob", "normal", 2, 2e-8, 1e-8) + strings.Repeat("# "+strings.Repeat("<", 1000)+"\n", 1000)
	if len(big) > maxDeckBytes {
		t.Fatalf("test deck is %d bytes, over the HTTP limit", len(big))
	}
	if _, err := p.Submit(big); statusOf(t, err) != http.StatusBadRequest {
		t.Fatalf("oversized record: %v", err)
	}
	rec, err := p.Submit(testDeck("alice", "normal", 1, 2e-8, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := openTestPlane(t, Config{Dir: dir})
	if list := p2.List(); len(list) != 1 || list[0].ID != rec.ID {
		t.Fatalf("after reopen the store holds %+v, want only %s", list, rec.ID)
	}
}
