package ctl

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestFormatGoldenWAL pins the control plane's two durable formats byte
// for byte: the TKMCWAL1 log after a fixed sequence of appends, the
// TKMCSNAP snapshot a compaction writes, and the log after compaction
// plus one more append. The records hold only fixed values (no clocks,
// no paths), and the deck text carries the characters JSON escapes.
func TestFormatGoldenWAL(t *testing.T) {
	dir := t.TempDir()
	walPath, snapPath := filepath.Join(dir, "ctl.wal"), filepath.Join(dir, "ctl.snap")
	w, _, err := openWAL(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()

	deck := "cells 4 4 4\nduration 1e-9\n# <&> \"quoted\"\ttab\n"
	a := JobRecord{ID: "job-000000", Seq: 0, Tenant: "alice", Priority: PriorityHigh, Deck: deck, State: StateQueued, Duration: 1e-9}
	b := JobRecord{ID: "job-000001", Seq: 1, Priority: PriorityLow, Deck: deck, State: StateQueued, Duration: 2e-9, Replicas: 2}
	steps := []JobRecord{a, b}
	a.State = StateRunning
	steps = append(steps, a)
	a.State, a.Time, a.Hops, a.Preemptions = StatePreempted, 5e-10, 17, 1
	steps = append(steps, a)
	a.State, a.Time, a.Hops, a.Restores = StateCompleted, 1e-9, 33, 1
	steps = append(steps, a)
	b.State, b.Error = StateFailed, "every replica failed"
	steps = append(steps, b)
	for _, rec := range steps {
		if _, err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, walPath, goldenWALBytes, goldenWALSHA)

	if err := w.compact(snapshotState{NextSeq: 2, Jobs: []JobRecord{a, b}}, snapPath); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, snapPath, goldenSnapBytes, goldenSnapSHA)

	b.State, b.Error, b.Parent, b.Replica = StateCanceled, "", "job-000000", 1
	if _, err := w.append(b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, walPath, goldenWALCompactedBytes, goldenWALCompactedSHA)
}

func checkGolden(t *testing.T, path string, size int, sha string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != size || got != sha {
		t.Errorf("%s moved: %d bytes, sha256 %s; golden %d bytes, %s",
			filepath.Base(path), len(data), got, size, sha)
	}
}

// Recorded at commit 6cf97e0, before the framing layer was extracted,
// go1.24 linux/amd64.
const (
	goldenWALBytes          = 1340
	goldenWALSHA            = "a89645680370836c8ac7baddda80038bab1eeb90131ad58184920a4049aa31a5"
	goldenSnapBytes         = 480
	goldenSnapSHA           = "ce9ceebde7398ff0f1e4eaa423ae86881243f9472ba840c4e6345f7c1726277f"
	goldenWALCompactedBytes = 248
	goldenWALCompactedSHA   = "cc33f60d2c00af0bcf8e6d2798ddb032cf184ead4e9bac1e87e89d56516cc864"
)
