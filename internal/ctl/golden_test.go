package ctl

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestFormatGoldenWAL pins the control plane's durable format byte for
// byte: the TKMCWAL1 log after a fixed sequence of appends, the log a
// compaction rewrites it to, and that log plus one more append. The
// records hold only fixed values (no clocks, no paths), and the deck
// text carries the characters JSON escapes.
func TestFormatGoldenWAL(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ctl.wal")
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
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, walPath, goldenWALBytes, goldenWALSHA)

	if err := w.compact([]JobRecord{a, b}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, walPath, goldenCompactedBytes, goldenCompactedSHA)

	b.State, b.Error, b.Parent, b.Replica = StateCanceled, "", "job-000000", 1
	if err := w.append(b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, walPath, goldenCompactedAppendBytes, goldenCompactedAppendSHA)
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

// Recorded when compaction moved into the log and records lost their
// LSN, go1.24 linux/amd64.
const (
	goldenWALBytes             = 1292
	goldenWALSHA               = "dd24571af1abd4d268d0c63676b7e7c199e79b53da2bc912eca69f10c28f0271"
	goldenCompactedBytes       = 471
	goldenCompactedSHA         = "c38ebd71394787b911a0594c3651bbb373d23dc32f221cc873650ad85f3e96ec"
	goldenCompactedAppendBytes = 703
	goldenCompactedAppendSHA   = "8ca729e1650388948ad3917c53d72df5e10ac5b038487e9d3ea17c4b58ad8307"
)
