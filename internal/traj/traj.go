// Package traj is the event-sourced trajectory subsystem: every hop,
// clipped interval, parallel segment, state snapshot and supervised
// recovery of a run is an append-only record in a CRC-framed,
// delta-compressed TKMCTRJ1 log. The log — not the final checkpoint —
// is the product: it supports time-travel replay (reconstruct the exact
// lattice/RNG/clock state at any recorded hop), branching ensembles
// (fork replicas from any snapshot) and compact long-trajectory storage
// (a serial hop costs ~11 bytes: slot varint + direction folded into
// the opcode + the raw Δt; positions are derived, never stored).
//
// The file is an internal/frame log, framed exactly like the
// control-plane WAL: an 8-byte magic, then CRC-32 frames whose payloads
// hold one or more records each. A torn tail (short or CRC-failing final
// frame, e.g. from a crash mid-write) is silently truncated on open;
// corruption *inside* a CRC-valid frame is a hard error — it means the
// encoder misbehaved, and the log refuses to extend a lie.
//
// Recording is trajectory-invisible: the recorder only observes events
// the engines already executed, never touches an RNG stream, and
// checkpoints are byte-identical with recording on or off (proven in
// internal/core tests).
package traj

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"

	"tensorkmc/internal/frame"
	"tensorkmc/internal/telemetry"
)

// Magic identifies a TKMCTRJ1 trajectory log.
const Magic = "TKMCTRJ1"

const (
	headerLen = int64(len(Magic))

	// flushThreshold is the buffered-record size at which the recorder
	// emits an intermediate (unsynced) frame.
	flushThreshold = 64 << 10
	// maxStringLen bounds snapshot names and recovery details.
	maxStringLen = 4096
	// maxSlot bounds the vacancy slot index in hop records; real runs
	// have at most a few thousand vacancies.
	maxSlot = 1 << 24
)

// Record opcodes. Hop records fold the 8 bcc NN1 directions into the
// opcode's low 3 bits.
const (
	opBegin    = 0x01 // mode u8, hops uvarint, time f64
	opHopBase  = 0x10 // 0x10..0x17: slot uvarint, Δt f64
	opClip     = 0x20 // limit f64 (interval boundary; consumed 3 draws)
	opSegment  = 0x21 // seg uvarint, duration f64, time f64, hops uvarint
	opSnapshot = 0x22 // hops uvarint, time f64, name (uvarint len + bytes)
	opRecovery = 0x23 // hops uvarint, time f64, detail (uvarint len + bytes)
)

// Mode distinguishes serial (per-hop) from parallel (per-segment) logs;
// the two record different grains and replay differently.
type Mode uint8

const (
	// ModeSerial logs every hop and clip of the serial engine.
	ModeSerial Mode = 0
	// ModeParallel logs sublattice segment boundaries (per-hop events
	// happen concurrently across ranks and are not globally ordered).
	ModeParallel Mode = 1
)

// String names the mode for errors and logs.
func (m Mode) String() string {
	switch m {
	case ModeSerial:
		return "serial"
	case ModeParallel:
		return "parallel"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Stats summarises a recorder's activity for benchmarks and telemetry.
type Stats struct {
	// Events counts hop, clip and segment records appended by this
	// recorder since Open (snapshots and recoveries excluded).
	Events int64
	// Bytes is the durable size of the log file, frames plus header.
	Bytes int64
	// Snapshots counts snapshot records appended since Open.
	Snapshots int
}

// mark is a durable frame boundary: the file offset right after the
// frame and the bit-exact (hops, time) state the log encodes up to it.
// Rollback targets are located by exact (hops, time) match — hops alone
// is ambiguous because clipped intervals consume RNG draws without
// advancing the hop count.
type mark struct {
	off  int64
	hops int64
	time float64
}

// Recorder appends trajectory records to a TKMCTRJ1 log. It buffers
// records in memory and makes them durable on Commit (fsync), which the
// core run loop calls before every checkpoint write so the log is never
// behind a durable checkpoint. It is not safe for concurrent use; the
// serial engine and the parallel sweep committer are single-goroutine.
type Recorder struct {
	log  *frame.Log
	path string
	mode Mode
	// every is the snapshot cadence in events; 0 means only the initial
	// snapshot.
	every int

	begun bool
	buf   []byte
	marks []mark
	// tail indexes marks at the current logical end of the log. Rollback
	// moves it backwards without touching the file; the pending truncate
	// happens on the next write, so a failed restore chain can still
	// roll back to a later mark.
	tail      int
	hops      int64
	time      float64
	sinceSnap int
	events    int64
	snaps     int
	journal   *telemetry.Journal
	err       error
}

// Open creates or resumes a trajectory log at path. An existing log is
// scanned (torn tails truncated, WAL-style), its frame boundaries
// indexed for rollback, and its mode checked against the requested one.
// snapshotEvery is the cadence for SnapshotDue in events; <= 0 means
// only the initial snapshot.
func Open(path string, mode Mode, snapshotEvery int) (*Recorder, error) {
	if mode != ModeSerial && mode != ModeParallel {
		return nil, fmt.Errorf("traj: invalid mode %d", mode)
	}
	r := &Recorder{path: path, mode: mode, every: snapshotEvery, marks: []mark{{off: headerLen}}}
	st := &scanState{}
	log, err := frame.Open(path, Magic, func(payload []byte, end int64) error {
		if err := parseRecords(payload, st, nil); err != nil {
			return fmt.Errorf("corrupt record in CRC-valid frame: %w", err)
		}
		if st.mode != mode { // the begin record opens the first frame
			return fmt.Errorf("a %v log, requested %v", st.mode, mode)
		}
		r.marks = append(r.marks, mark{off: end, hops: st.hops, time: st.time})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("traj: %w", err)
	}
	r.log = log
	if st.seenBegin {
		r.begun, r.hops, r.time = true, st.hops, st.time
		r.marks[0] = mark{off: headerLen, hops: st.startHops, time: st.startTime}
	}
	r.tail = len(r.marks) - 1
	return r, nil
}

// Mode returns the log's mode.
func (r *Recorder) Mode() Mode { return r.mode }

// Begun reports whether the log already holds a begin record (durable
// or buffered) — i.e. whether a resuming run must Rollback rather than
// Begin.
func (r *Recorder) Begun() bool { return r.begun }

// SetJournal mirrors begin/snapshot/recovery records into the flight
// recorder so operators see trajectory structure in /events. Nil is
// fine (no-op); per-hop records are never journaled.
func (r *Recorder) SetJournal(j *telemetry.Journal) { r.journal = j }

// Begin opens the record stream at the run's starting state. It must be
// the first record of a fresh log and cannot be repeated.
func (r *Recorder) Begin(hops int64, time float64) error {
	if r.err != nil {
		return r.err
	}
	if r.begun {
		return fmt.Errorf("traj: log already begun")
	}
	if hops < 0 || !finite(time) || time < 0 {
		return fmt.Errorf("traj: invalid begin state hops=%d t=%v", hops, time)
	}
	r.buf = append(r.buf, opBegin, byte(r.mode))
	r.buf = binary.AppendUvarint(r.buf, uint64(hops))
	r.buf = appendF64(r.buf, time)
	r.begun = true
	r.hops = hops
	r.time = time
	r.marks[0] = mark{off: headerLen, hops: hops, time: time}
	r.journal.RecordSim("traj", time, "begin %v log at hop %d", r.mode, hops)
	return nil
}

// Hop appends one executed hop: the chosen vacancy slot, the NN1
// direction (0..7) and the residence-time increment. Positions are
// derivable and not stored. Errors are sticky and surface at Commit.
func (r *Recorder) Hop(slot, dir int, deltaT float64) {
	if r.err != nil {
		return
	}
	if !r.begun || slot < 0 || slot >= maxSlot || dir < 0 || dir > 7 || !finite(deltaT) || deltaT < 0 {
		r.err = fmt.Errorf("traj: invalid hop record slot=%d dir=%d dt=%v begun=%v", slot, dir, deltaT, r.begun)
		return
	}
	r.buf = append(r.buf, byte(opHopBase|dir))
	r.buf = binary.AppendUvarint(r.buf, uint64(slot))
	r.buf = appendF64(r.buf, deltaT)
	r.hops++
	r.time += deltaT
	r.events++
	r.sinceSnap++
	r.maybeFlush()
}

// Clip records an interval boundary: the serial engine drew a Δt that
// overshot the time limit, consumed its three draws, and pinned the
// clock to the limit. Replay must reproduce those draws, so clips are
// part of the trajectory.
func (r *Recorder) Clip(limit float64) {
	if r.err != nil {
		return
	}
	if !r.begun || !finite(limit) || limit < r.time {
		r.err = fmt.Errorf("traj: invalid clip limit=%v at t=%v begun=%v", limit, r.time, r.begun)
		return
	}
	r.buf = append(r.buf, opClip)
	r.buf = appendF64(r.buf, limit)
	r.time = limit
	r.events++
	r.maybeFlush()
}

// Segment records a completed parallel sweep: its segment index, the
// requested duration and the absolute (time, hops) state after it.
// Parallel runs are deterministic per segment (ranks reseed from
// Seed+segment), so the segment stream is the whole trajectory.
func (r *Recorder) Segment(seg uint64, duration, time float64, hops int64) {
	if r.err != nil {
		return
	}
	if !r.begun || !finite(duration) || duration < 0 || !finite(time) || time < r.time || hops < r.hops {
		r.err = fmt.Errorf("traj: invalid segment record seg=%d d=%v t=%v hops=%d begun=%v", seg, duration, time, hops, r.begun)
		return
	}
	r.buf = append(r.buf, opSegment)
	r.buf = binary.AppendUvarint(r.buf, seg)
	r.buf = appendF64(r.buf, duration)
	r.buf = appendF64(r.buf, time)
	r.buf = binary.AppendUvarint(r.buf, uint64(hops))
	r.hops = hops
	r.time = time
	r.events++
	r.sinceSnap++
	r.maybeFlush()
}

// SnapshotDue reports whether the snapshot cadence has elapsed.
func (r *Recorder) SnapshotDue() bool {
	return r.every > 0 && r.sinceSnap >= r.every
}

// Snapshot persists a full-state snapshot next to the log and appends a
// record naming it. save is handed the snapshot file path (derived
// deterministically from the hop count, so a replayed interval
// overwrites the identical snapshot) and must write it crash-safely.
func (r *Recorder) Snapshot(hops int64, time float64, save func(path string) error) error {
	if r.err != nil {
		return r.err
	}
	if !r.begun {
		return fmt.Errorf("traj: snapshot before begin")
	}
	if hops != r.hops || time != r.time {
		return fmt.Errorf("traj: snapshot state (hops=%d t=%v) does not match log tail (hops=%d t=%v)", hops, time, r.hops, r.time)
	}
	full := fmt.Sprintf("%s.snap-%d", r.path, hops)
	if err := save(full); err != nil {
		return fmt.Errorf("traj: writing snapshot: %w", err)
	}
	name := filepath.Base(full)
	r.buf = append(r.buf, opSnapshot)
	r.buf = binary.AppendUvarint(r.buf, uint64(hops))
	r.buf = appendF64(r.buf, time)
	r.buf = binary.AppendUvarint(r.buf, uint64(len(name)))
	r.buf = append(r.buf, name...)
	r.sinceSnap = 0
	r.snaps++
	r.journal.RecordSim("traj", time, "snapshot %s at hop %d", name, hops)
	r.maybeFlush()
	return r.err
}

// Commit makes all buffered records durable (frame write + fsync) and
// indexes the new frame boundary as a rollback mark. The caller passes
// its current (hops, time) state; a mismatch with the log tail means
// events were dropped and is a sticky error — the log refuses to
// certify a trajectory it did not fully see. Core calls Commit before
// every checkpoint write, so the log is never behind a checkpoint.
func (r *Recorder) Commit(hops int64, time float64) error {
	if r.err != nil {
		return r.err
	}
	if !r.begun {
		return fmt.Errorf("traj: commit before begin")
	}
	if hops != r.hops || time != r.time {
		r.err = fmt.Errorf("traj: commit state (hops=%d t=%v) does not match log tail (hops=%d t=%v): events were not recorded", hops, time, r.hops, r.time)
		return r.err
	}
	if len(r.buf) == 0 && r.tail == len(r.marks)-1 {
		return nil // nothing new and no pending truncate
	}
	return r.flush(true)
}

// Rollback rewinds the logical log tail to a previously committed mark
// matching (hops, time) bit-exactly — the state a restored checkpoint
// re-enters — and appends a recovery record. The file is not touched
// until the next write (lazy truncate), so a failed restore candidate
// does not burn later marks. It fails closed when no exact mark exists:
// resuming a log from a state it never committed would corrupt it.
func (r *Recorder) Rollback(hops int64, time float64) error {
	if r.err != nil {
		return r.err
	}
	if !r.begun {
		return fmt.Errorf("traj: rollback before begin")
	}
	for i := len(r.marks) - 1; i >= 1; i-- {
		if r.marks[i].hops == hops && r.marks[i].time == time {
			r.buf = r.buf[:0]
			r.tail = i
			r.hops = hops
			r.time = time
			r.sinceSnap = 0
			detail := "restored"
			r.buf = append(r.buf, opRecovery)
			r.buf = binary.AppendUvarint(r.buf, uint64(hops))
			r.buf = appendF64(r.buf, time)
			r.buf = binary.AppendUvarint(r.buf, uint64(len(detail)))
			r.buf = append(r.buf, detail...)
			r.journal.RecordSim("traj", time, "rollback to hop %d after recovery", hops)
			return nil
		}
	}
	return fmt.Errorf("traj: no committed mark at hops=%d t=%v; log cannot resume from this state", hops, time)
}

// Stats returns the recorder's activity counters.
func (r *Recorder) Stats() Stats {
	bytes := r.marks[r.tail].off
	return Stats{Events: r.events, Bytes: bytes, Snapshots: r.snaps}
}

// Close flushes nothing (call Commit first for durability) and releases
// the file handle. A recorder with only uncommitted buffered records
// loses them, by design: they were never acknowledged.
func (r *Recorder) Close() error { return r.log.Close() }

// maybeFlush emits an intermediate unsynced frame when the buffer grows
// past the flush threshold, bounding memory on long chunks.
func (r *Recorder) maybeFlush() {
	if len(r.buf) >= flushThreshold {
		if err := r.flush(false); err != nil && r.err == nil {
			r.err = err
		}
	}
}

// flush performs any pending rollback truncation, writes the buffered
// records as one frame, optionally fsyncs, and appends a mark.
func (r *Recorder) flush(sync bool) error {
	if r.err != nil {
		return r.err
	}
	if r.tail < len(r.marks)-1 {
		// Lazy rollback: now that new records follow, discard the
		// abandoned suffix for real.
		if err := r.log.Truncate(r.marks[r.tail].off); err != nil {
			r.err = fmt.Errorf("traj: truncating rolled-back tail: %w", err)
			return r.err
		}
		r.marks = r.marks[:r.tail+1]
	}
	if len(r.buf) > 0 {
		end, err := r.log.Append(r.buf)
		if err != nil {
			r.err = fmt.Errorf("traj: writing frame: %w", err)
			return r.err
		}
		r.marks = append(r.marks, mark{off: end, hops: r.hops, time: r.time})
		r.tail = len(r.marks) - 1
		r.buf = r.buf[:0]
	}
	if sync {
		if err := r.log.Sync(); err != nil {
			r.err = fmt.Errorf("traj: fsync: %w", err)
			return r.err
		}
	}
	return nil
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
