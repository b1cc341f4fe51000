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
// sequence: replay the WAL, re-adopt every non-terminal job from its
// last checkpoint. Preempting a job, draining the controller and
// recovering from a crash are one mechanism: stop at a segment
// boundary, trust the checkpoint, restore later.
package ctl

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tensorkmc/internal/fault"
	"tensorkmc/internal/frame"
	"tensorkmc/internal/telemetry"
)

// walMagic heads the write-ahead log, the job store's only durable
// file. The log is framed and its torn tail repaired by internal/frame.
const walMagic = "TKMCWAL1"

// compactSlack is the constant of the compaction rule: the log is
// rewritten once it holds at least compactSlack more stale records than
// live jobs (records ≥ 2·jobs + compactSlack). It keeps a store of a
// job or two from compacting every few transitions.
const compactSlack = 4

// walRecord is one appended entry: the full job record after the
// transition. Records are upserts, replayed in file order, so the last
// record of a job is its state. Logs written by older controllers also
// carry an "lsn" field, which decoding ignores.
type walRecord struct {
	Job JobRecord `json:"job"`
}

// wal is the open write-ahead log. All methods are called with the
// plane's mutex held, so the log needs no lock of its own.
type wal struct {
	path string
	log  *frame.Log
	n    int // records in the log, stale ones included

	appends, fsyncs, compactions *telemetry.Counter
	fsyncLat                     *telemetry.Histogram
}

// openWAL opens (creating if absent) the log at path and replays its
// records, in file order. A torn final record — the signature of a
// crash mid-append — is truncated away by the frame scan; a CRC-valid
// record that does not decode ends replay the same way, since nothing
// after it can be trusted to follow it.
func openWAL(path string, set *telemetry.Set) (*wal, []JobRecord, error) {
	w := &wal{path: path}
	if reg := set.Reg(); reg != nil {
		w.appends = reg.Counter(telemetry.MetricCtlWALAppends,
			"Job-state records appended to the control-plane WAL.")
		w.fsyncs = reg.Counter(telemetry.MetricCtlWALFsyncs,
			"Control-plane WAL fsyncs (one per acknowledged transition).")
		w.compactions = reg.Counter(telemetry.MetricCtlWALSnapshots,
			"Compactions of the control-plane WAL to one record per job.")
		w.fsyncLat = reg.Histogram(telemetry.MetricCtlWALFsyncSecs,
			"Control-plane WAL fsync latency in seconds — the floor under every acknowledged transition.", nil)
	}
	var recs []JobRecord
	log, err := frame.Open(path, walMagic, func(payload []byte, _ int64) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return frame.ErrTorn
		}
		recs = append(recs, rec.Job)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ctl: opening WAL: %w", err)
	}
	w.log = log
	w.n = len(recs)
	return w, recs, nil
}

// append frames, writes and fsyncs one record. The
// fsync-before-acknowledge ordering is the write-ahead contract: a
// transition the caller saw succeed is durable, and a crash between
// write and fsync loses at most a record that was never acknowledged. A
// record over frame.MaxPayload is refused before anything is written
// (frame.ErrTooLarge), since replay could never read it back.
func (w *wal) append(job JobRecord) error {
	payload, err := json.Marshal(walRecord{Job: job})
	if err != nil {
		return fmt.Errorf("ctl: encoding WAL record: %w", err)
	}
	if _, err := w.log.Append(payload); err != nil {
		return fmt.Errorf("ctl: appending WAL record: %w", err)
	}
	w.appends.Inc()
	maybeCrash(CrashWALAppend) // chaos: die with the record written but not fsynced
	syncStart := time.Now()
	if err := w.log.Sync(); err != nil {
		return fmt.Errorf("ctl: fsyncing WAL: %w", err)
	}
	w.fsyncs.Inc()
	w.fsyncLat.Observe(time.Since(syncStart).Seconds())
	maybeCrash(CrashWALFsync) // chaos: die with the record durable but unapplied
	w.n++
	return nil
}

// compact rewrites the log as one record per job: a fresh log is
// written to a temporary file, fsynced and renamed over the old one,
// then reopened. A crash before the rename leaves the old log whole; a
// crash after it leaves the compacted one, which replays to the same
// store. A failed reopen leaves the log closed, so every later append
// fails instead of writing to the replaced file.
func (w *wal) compact(jobs []JobRecord) error {
	err := fault.WriteFileAtomic(w.path, false, func(f io.Writer) error {
		buf := []byte(walMagic)
		for _, job := range jobs {
			payload, err := json.Marshal(walRecord{Job: job})
			if err != nil {
				return err
			}
			buf = frame.AppendFrame(buf, payload)
		}
		_, err := f.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("ctl: compacting WAL: %w", err)
	}
	maybeCrash(CrashSnapshot) // chaos: die with the compacted log in place but not reopened
	w.log.Close()
	log, err := frame.Open(w.path, walMagic, nil)
	if err != nil {
		return fmt.Errorf("ctl: reopening compacted WAL: %w", err)
	}
	w.log = log
	w.n = len(jobs)
	w.compactions.Inc()
	return nil
}

// close releases the log file handle (the data is already durable —
// every append fsynced before acknowledging).
func (w *wal) close() error { return w.log.Close() }
