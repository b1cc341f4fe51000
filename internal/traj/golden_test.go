package traj

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestFormatGoldenTraj pins the TKMCTRJ1 log byte for byte. The serial
// log holds begin, snapshot, hop, clip and recovery records over four
// frames, one of them the unsynced frame the recorder emits when its
// buffer crosses the flush threshold; the parallel log holds segment
// records and a snapshot over two frames. Every input is fixed, and the
// snapshot records carry only the base name of the log, so no clock or
// temporary path reaches the bytes.
func TestFormatGoldenTraj(t *testing.T) {
	dir := t.TempDir()

	serialPath := filepath.Join(dir, "golden.tkmctrj")
	r := openT(t, serialPath, ModeSerial, 0)
	hops, tm := int64(5), 1.5e-9
	commit := func() {
		t.Helper()
		if err := r.Commit(hops, tm); err != nil {
			t.Fatal(err)
		}
	}
	hop := func(i int) {
		dt := 1e-12 * float64(1+i%5)
		r.Hop(i%13, i%8, dt)
		hops++
		tm += dt
	}
	if err := r.Begin(hops, tm); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(hops, tm, noopSave); err != nil {
		t.Fatal(err)
	}
	commit()
	for i := 0; i < 7000; i++ { // > flushThreshold of buffered hops
		hop(i)
	}
	tm += 1e-10
	r.Clip(tm)
	commit()
	markHops, markTime := hops, tm
	for i := 0; i < 3; i++ {
		hop(i)
	}
	commit()
	if err := r.Rollback(markHops, markTime); err != nil {
		t.Fatal(err)
	}
	hops, tm = markHops, markTime
	for i := 3; i < 5; i++ {
		hop(i)
	}
	commit()
	r.Close()

	parallelPath := filepath.Join(dir, "golden-parallel.tkmctrj")
	p := openT(t, parallelPath, ModeParallel, 0)
	if err := p.Begin(0, 0); err != nil {
		t.Fatal(err)
	}
	p.Segment(0, 1e-8, 1e-8, 40)
	if err := p.Commit(40, 1e-8); err != nil {
		t.Fatal(err)
	}
	p.Segment(1, 1e-8, 2e-8, 85)
	if err := p.Snapshot(85, 2e-8, noopSave); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(85, 2e-8); err != nil {
		t.Fatal(err)
	}
	p.Close()

	for _, g := range []struct {
		path  string
		bytes int
		sha   string
	}{
		{serialPath, goldenTrajSerialBytes, goldenTrajSerialSHA},
		{parallelPath, goldenTrajParallelBytes, goldenTrajParallelSHA},
	} {
		data, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); len(data) != g.bytes || got != g.sha {
			t.Errorf("%s moved: %d bytes, sha256 %s; golden %d bytes, %s",
				filepath.Base(g.path), len(data), got, g.bytes, g.sha)
		}
	}

	lg, err := ReadLog(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Truncated || lg.Hops != hops || lg.Time != tm || len(lg.Records) != 1+7000+1+1+2 {
		t.Fatalf("golden serial log decodes to hops=%d t=%v records=%d truncated=%v",
			lg.Hops, lg.Time, len(lg.Records), lg.Truncated)
	}
}

// Recorded at commit 6cf97e0, before the framing layer was extracted,
// go1.24 linux/amd64.
const (
	goldenTrajSerialBytes   = 70132
	goldenTrajSerialSHA     = "9274fc25d23f682bd238248c8e8681edbaf53c9a23a884261318f67720a60951"
	goldenTrajParallelBytes = 115
	goldenTrajParallelSHA   = "dcd23860d869cd07a0592cc99eb1fd5a4c698985c7aa4bc3418f0537855fc057"
)
