package ctl

import (
	"fmt"
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

// TestWALRoundTrip: a fresh log replays nothing (first boot); records
// appended before close replay on reopen in file order, and appends
// after the replay extend the same log.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.wal")
	w, recs, err := openWAL(path, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}
	states := []JobState{StateQueued, StateRunning, StatePreempted}
	for _, st := range states {
		if err := w.append(testRec("job-1", 1, st)); err != nil {
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
	if len(recs) != len(states) || w2.n != len(states) {
		t.Fatalf("replayed %d records (n=%d), want %d", len(recs), w2.n, len(states))
	}
	for i, r := range recs {
		if r.State != states[i] {
			t.Fatalf("record %d replayed as %s, want %s", i, r.State, states[i])
		}
	}
	if err := w2.append(testRec("job-1", 1, StateRunning)); err != nil {
		t.Fatalf("post-replay append: %v", err)
	}
	w2.close()
	if _, recs, err = openWAL(path, nil); err != nil || len(recs) != 4 || recs[3].State != StateRunning {
		t.Fatalf("re-replay got %+v err=%v, want 4 records ending running", recs, err)
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
		if err := w.append(testRec("job-1", 1, StateQueued)); err != nil {
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
		if err := w2.append(testRec("job-2", 2, StateQueued)); err != nil {
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
	if len(recs) != 1 || recs[0].State != StateQueued {
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
		if err := w.append(testRec("job-1", 1, StateQueued)); err != nil {
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

// TestCompactionRoundTrip: compaction rewrites the log in place as one
// record per job, leaving no temporary file and no backup; the reopened
// log takes further appends, and a replay sees the compacted records
// followed by them.
func TestCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ctl.wal")
	set := telemetry.NewSet()
	w, _, err := openWAL(path, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []JobState{StateQueued, StateRunning, StatePreempted, StateQueued, StateRunning} {
		if err := w.append(testRec("job-1", 1, st)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.append(testRec("job-2", 2, StateQueued)); err != nil {
		t.Fatal(err)
	}
	jobs := []JobRecord{testRec("job-1", 1, StateRunning), testRec("job-2", 2, StateQueued)}
	if err := w.compact(jobs); err != nil {
		t.Fatal(err)
	}
	if w.n != len(jobs) || w.compactions.Value() != 1 {
		t.Fatalf("after compaction n=%d compactions=%d, want %d and 1", w.n, w.compactions.Value(), len(jobs))
	}
	if err := w.append(testRec("job-1", 1, StateCompleted)); err != nil {
		t.Fatal(err)
	}
	w.close()

	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("compaction left %v, want only ctl.wal", names)
	}
	_, recs, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append(jobs, testRec("job-1", 1, StateCompleted))
	if len(recs) != len(want) {
		t.Fatalf("replayed %+v, want %+v", recs, want)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d replayed as %+v, want %+v", i, recs[i], want[i])
		}
	}
}

// TestCompactionAmortised: compaction is due once the log holds
// compactSlack more stale records than live jobs, so T transitions on a
// J-job store compact at most ceil(T/(J+compactSlack)) times, each
// writing J records, and the log never grows past 2J+compactSlack
// records. The store replays to its last state.
func TestCompactionAmortised(t *testing.T) {
	const transitions = 200
	for _, jobs := range []int{1, 3, 10, 40} {
		dir := t.TempDir()
		w, _, err := openWAL(filepath.Join(dir, "ctl.wal"), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < jobs; i++ {
			rec := testRec(fmt.Sprintf("job-%06d", i), uint64(i), StateCompleted)
			if err := w.append(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.close()

		p := openTestPlane(t, Config{Dir: dir})
		p.mu.Lock()
		ids := make([]string, 0, jobs)
		for _, rec := range p.listLocked() {
			ids = append(ids, rec.ID)
		}
		for i := 0; i < transitions; i++ {
			j := p.jobs[ids[i%jobs]]
			if err := p.transitionLocked(j, func(r *JobRecord) { r.Hops++ }); err != nil {
				t.Fatal(err)
			}
			if p.wal.n >= 2*jobs+compactSlack {
				t.Fatalf("J=%d: log holds %d records after transition %d", jobs, p.wal.n, i)
			}
		}
		got, bound := p.wal.compactions.Value(), (transitions+jobs+compactSlack-1)/(jobs+compactSlack)
		want := p.listLocked()
		p.mu.Unlock()
		if got > int64(bound) || got < 1 {
			t.Fatalf("J=%d: %d compactions over %d transitions, want 1..%d", jobs, got, transitions, bound)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		p2 := openTestPlane(t, Config{Dir: dir})
		if list := p2.List(); fmt.Sprint(list) != fmt.Sprint(want) {
			t.Fatalf("J=%d: reopened store %+v, want %+v", jobs, list, want)
		}
	}
}

// TestOldStoreDirectories: a log written before compaction moved into
// it carries an "lsn" in every record and replays unchanged; a
// directory holding that controller's TKMCSNAP snapshot (or only its
// backup) is refused, naming the file, since the jobs folded into it
// are in no log.
func TestOldStoreDirectories(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(filepath.Join(dir, "ctl.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	deck := testDeck("alice", "normal", 1, 1e-9, 1e-9)
	for i, rec := range []string{
		`{"lsn":1,"job":{"id":"job-000000","seq":0,"tenant":"alice","priority":1,"deck":%q,"state":"queued","duration":1e-9,"time":0,"hops":0}}`,
		`{"lsn":2,"job":{"id":"job-000001","seq":1,"tenant":"alice","priority":1,"deck":%q,"state":"queued","duration":1e-9,"time":0,"hops":0}}`,
		`{"lsn":3,"job":{"id":"job-000000","seq":0,"tenant":"alice","priority":1,"deck":%q,"state":"completed","duration":1e-9,"time":1e-9,"hops":33}}`,
		`{"lsn":4,"job":{"id":"job-000001","seq":1,"tenant":"alice","priority":1,"deck":%q,"state":"canceled","duration":1e-9,"time":0,"hops":0}}`,
	} {
		if _, err := w.log.Append([]byte(fmt.Sprintf(rec, deck))); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	w.close()
	p := openTestPlane(t, Config{Dir: dir})
	list := p.List()
	if len(list) != 2 || list[0].State != StateCompleted || list[0].Hops != 33 || list[1].State != StateCanceled {
		t.Fatalf("old log replayed as %+v", list)
	}
	if next, err := p.Submit(deck); err != nil || next.Seq != 2 {
		t.Fatalf("submission after old-log replay: seq %d, err %v", next.Seq, err)
	}
	p.Close()

	for _, name := range []string{"ctl.snap", "ctl.snap.bak"} {
		dir := t.TempDir()
		snap := filepath.Join(dir, name)
		if err := os.WriteFile(snap, []byte("TKMCSNAP"), 0o644); err != nil {
			t.Fatal(err)
		}
		if p, err := Open(Config{Dir: dir}); err == nil {
			p.Close()
			t.Fatalf("%s: store opened without the snapshot's jobs", name)
		} else if !strings.Contains(err.Error(), snap) {
			t.Fatalf("%s: error %q does not name the file", name, err)
		}
	}
}

// TestOpenAfterCompactionCrash: the two states a crash mid-compaction
// can leave both open to the store as it was. Before the rename, the
// old log is whole beside a temporary copy, which Open removes; after
// it (the CrashSnapshot point), the compacted log is in place.
func TestOpenAfterCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ctl.wal")
	w, _, err := openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []JobState{StateQueued, StatePreempted, StateCompleted} {
		if err := w.append(testRec("job-000001", 1, st)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.append(testRec("job-000002", 2, StateCanceled)); err != nil {
		t.Fatal(err)
	}
	w.close()
	want := []JobRecord{testRec("job-000001", 1, StateCompleted), testRec("job-000002", 2, StateCanceled)}

	// Crash before the rename: a torn temporary copy beside the old log.
	tmp := path + ".tmp-123456"
	if err := os.WriteFile(tmp, []byte(walMagic+"\x10\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := openTestPlane(t, Config{Dir: dir})
	if list := p.List(); fmt.Sprint(list) != fmt.Sprint(want) {
		t.Fatalf("old log beside a temporary copy replayed as %+v, want %+v", list, want)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temporary copy survived Open: %v", err)
	}
	p.Close()

	// Crash after the rename: the compacted log, never reopened.
	w, _, err = openWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.compact(want); err != nil {
		t.Fatal(err)
	}
	w.close()
	p = openTestPlane(t, Config{Dir: dir})
	if list := p.List(); fmt.Sprint(list) != fmt.Sprint(want) {
		t.Fatalf("compacted log replayed as %+v, want %+v", list, want)
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
