// Package ctl is the crash-only multi-job control plane: a WAL-backed
// job store, an admission-controlled priority scheduler that multiplexes
// many simulations over the shared evaluation substrate, and an HTTP
// front-end (cmd/tkmc-ctl) for submitting decks and streaming
// observables.
//
// The design is crash-only in the literal sense: there is no clean
// shutdown path that the recovery path does not also handle. Every job
// state transition is appended to a CRC-framed write-ahead log before it
// is acknowledged, every job's resumable simulation state lives in its
// own checkpoint directory (the PR 2/3 discipline), and restart — after
// a SIGKILL, a power cut, or an ordinary exit — is always the same
// sequence: load the last snapshot, replay the WAL tail, re-adopt every
// non-terminal job from its last checkpoint. Preempting a job, draining
// the controller and recovering from a crash are one mechanism: stop at
// a segment boundary, trust the checkpoint, restore later.
package ctl

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"tensorkmc/internal/frame"
	"tensorkmc/internal/telemetry"
)

// walMagic heads the write-ahead log; snapMagic heads the compacted
// snapshot. The log is framed and its torn tail repaired by
// internal/frame; the snapshot is a frame sealed file.
const (
	walMagic  = "TKMCWAL1"
	snapMagic = "TKMCSNAP"
)

// walRecord is one appended entry: a monotonically increasing log
// sequence number and the full job record after the transition (an
// upsert — replay is idempotent and order-insensitive past the LSN
// check, which is what makes a snapshot-then-crash-before-truncate
// restart safe).
type walRecord struct {
	LSN uint64    `json:"lsn"`
	Job JobRecord `json:"job"`
}

// wal is the open write-ahead log. All methods are called with the
// plane's mutex held, so the log needs no lock of its own.
type wal struct {
	log *frame.Log
	lsn uint64 // last assigned LSN
	n   int    // records appended since open/compaction

	appends, fsyncs, snapshots *telemetry.Counter
	fsyncLat                   *telemetry.Histogram
}

// openWAL opens (creating if absent) the log at path and replays its
// records. A torn final record — the signature of a crash mid-append —
// is truncated away by the frame scan; a CRC-valid record that does not
// decode ends replay the same way, since nothing after it can be
// trusted to follow it.
func openWAL(path string, set *telemetry.Set) (*wal, []walRecord, error) {
	w := &wal{}
	if reg := set.Reg(); reg != nil {
		w.appends = reg.Counter(telemetry.MetricCtlWALAppends,
			"Job-state records appended to the control-plane WAL.")
		w.fsyncs = reg.Counter(telemetry.MetricCtlWALFsyncs,
			"Control-plane WAL fsyncs (one per acknowledged transition).")
		w.snapshots = reg.Counter(telemetry.MetricCtlWALSnapshots,
			"Atomic snapshot compactions of the control-plane WAL.")
		w.fsyncLat = reg.Histogram(telemetry.MetricCtlWALFsyncSecs,
			"Control-plane WAL fsync latency in seconds — the floor under every acknowledged transition.", nil)
	}
	var recs []walRecord
	log, err := frame.Open(path, walMagic, func(payload []byte, _ int64) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return frame.ErrTorn
		}
		recs = append(recs, rec)
		w.lsn = max(w.lsn, rec.LSN)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ctl: opening WAL: %w", err)
	}
	w.log = log
	w.n = len(recs)
	return w, recs, nil
}

// append frames, writes and fsyncs one record, assigning the next LSN.
// The fsync-before-acknowledge ordering is the write-ahead contract: a
// transition the caller saw succeed is durable, and a crash between
// write and fsync loses at most a record that was never acknowledged. A
// record over frame.MaxPayload is refused before anything is written
// (frame.ErrTooLarge), since replay could never read it back.
func (w *wal) append(job JobRecord) (uint64, error) {
	payload, err := json.Marshal(walRecord{LSN: w.lsn + 1, Job: job})
	if err != nil {
		return 0, fmt.Errorf("ctl: encoding WAL record: %w", err)
	}
	if _, err := w.log.Append(payload); err != nil {
		return 0, fmt.Errorf("ctl: appending WAL record: %w", err)
	}
	w.appends.Inc()
	maybeCrash(CrashWALAppend) // chaos: die with the record written but not fsynced
	syncStart := time.Now()
	if err := w.log.Sync(); err != nil {
		return 0, fmt.Errorf("ctl: fsyncing WAL: %w", err)
	}
	w.fsyncs.Inc()
	w.fsyncLat.Observe(time.Since(syncStart).Seconds())
	maybeCrash(CrashWALFsync) // chaos: die with the record durable but unapplied
	w.lsn++
	w.n++
	return w.lsn, nil
}

// snapshotState is the compacted store image: everything replay needs
// that is not derivable from the job records themselves.
type snapshotState struct {
	LSN     uint64      `json:"lsn"` // last LSN folded into this snapshot
	NextSeq uint64      `json:"next_seq"`
	Jobs    []JobRecord `json:"jobs"`
}

// saveSnapshot writes the compacted state crash-safely as a sealed
// TKMCSNAP file whose body is uint32 LE length | JSON state.
func saveSnapshot(path string, st snapshotState) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("ctl: encoding snapshot: %w", err)
	}
	return frame.Save(path, snapMagic, func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(payload))); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
}

// loadSnapshot reads a snapshot, falling back to the rotated .bak when
// the primary is missing or corrupt. No snapshot at all is not an error
// — a young WAL has never compacted.
func loadSnapshot(path string) (snapshotState, bool, error) {
	var st snapshotState
	err := frame.Load(path, func(_ string, data []byte) error {
		body, err := frame.Unseal(data, snapMagic)
		if err != nil {
			return err
		}
		if len(body) < 4 || int(binary.LittleEndian.Uint32(body)) != len(body)-4 {
			return fmt.Errorf("snapshot length mismatch")
		}
		st = snapshotState{}
		return json.Unmarshal(body[4:], &st)
	})
	if errors.Is(err, os.ErrNotExist) {
		return snapshotState{}, false, nil
	}
	if err != nil {
		return snapshotState{}, false, fmt.Errorf("ctl: loading snapshot %s: %w", path, err)
	}
	return st, true, nil
}

// compact folds the current store image into an atomic snapshot and
// cuts the log back to its header. The ordering is what makes a crash
// anywhere inside harmless: the snapshot is durable (with .bak rotation)
// before the log is cut, and a crash before the cut reaches the disk
// replays old records whose LSNs the snapshot already covers, which the
// LSN check skips.
func (w *wal) compact(st snapshotState, snapPath string) error {
	st.LSN = w.lsn
	if err := saveSnapshot(snapPath, st); err != nil {
		return err
	}
	maybeCrash(CrashSnapshot) // chaos: die with the snapshot durable but the log not yet reset
	if err := w.log.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("ctl: resetting WAL: %w", err)
	}
	w.n = 0
	w.snapshots.Inc()
	return nil
}

// close releases the log file handle (the data is already durable —
// every append fsynced before acknowledging).
func (w *wal) close() error { return w.log.Close() }
