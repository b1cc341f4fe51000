package traj

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"tensorkmc/internal/frame"
)

// Kind tags a decoded trajectory record.
type Kind uint8

// Record kinds, one per opcode.
const (
	// KindHop is one executed vacancy hop.
	KindHop Kind = iota
	// KindClip is a clipped interval boundary (three RNG draws, clock
	// pinned to the limit).
	KindClip
	// KindSegment is a completed parallel sweep.
	KindSegment
	// KindSnapshot names a full-state snapshot file next to the log.
	KindSnapshot
	// KindRecovery marks a supervised rollback to a committed mark.
	KindRecovery
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case KindHop:
		return "hop"
	case KindClip:
		return "clip"
	case KindSegment:
		return "segment"
	case KindSnapshot:
		return "snapshot"
	case KindRecovery:
		return "recovery"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one decoded trajectory record. Fields are populated per
// Kind: hops use Slot/Dir/DeltaT, clips use Limit, segments use
// Seg/Duration/Time/Hops, snapshots use Hops/Time/Name, recoveries use
// Hops/Time/Detail. Time and Hops are absolute run state.
type Record struct {
	// Kind selects which of the fields below are meaningful.
	Kind Kind
	// Slot, Dir and DeltaT describe a hop: the vacancy slot, the jump
	// direction, and the residence time drawn for the step.
	Slot   int
	Dir    int
	DeltaT float64
	// Limit is a clip's time cap.
	Limit float64
	// Seg and Duration describe a parallel segment: its ordinal and its
	// simulated duration.
	Seg      uint64
	Duration float64
	// Time and Hops are the absolute run state stamped on segment,
	// snapshot and recovery records.
	Time float64
	Hops int64
	// Name is a snapshot's sidecar file name; Detail is a recovery
	// record's reason.
	Name   string
	Detail string
}

// Log is a fully decoded trajectory log.
type Log struct {
	// Mode is serial or parallel, from the begin record.
	Mode Mode
	// StartHops and StartTime are the run state at the begin record.
	StartHops int64
	StartTime float64
	// Begun reports whether the log holds a begin record; a freshly
	// created log that crashed before its first commit does not.
	Begun bool
	// Records lists every record after begin, in order.
	Records []Record
	// Truncated reports whether a torn tail (short or CRC-failing final
	// frame) was dropped during decode.
	Truncated bool
	// Hops and Time are the absolute run state at the end of the log.
	Hops int64
	Time float64
}

// scanState threads per-record validation and state accumulation
// through a frame-by-frame decode. The accumulated (hops, time) mirror
// the recorder's own counters operation-for-operation, so they are
// bit-exact against the engine's clock.
type scanState struct {
	seenBegin bool
	mode      Mode
	startHops int64
	startTime float64
	hops      int64
	time      float64
}

// parseRecords decodes every record in one frame payload, validating
// against and updating st. emit, if non-nil, receives each record after
// the begin record. Errors here are hard: the frame's CRC already
// proved the bytes are what the writer wrote.
func parseRecords(payload []byte, st *scanState, emit func(Record)) error {
	p := payload
	for len(p) > 0 {
		op := p[0]
		p = p[1:]
		if op == opBegin {
			if st.seenBegin {
				return fmt.Errorf("duplicate begin record")
			}
			if len(p) < 1 {
				return fmt.Errorf("short begin record")
			}
			m := Mode(p[0])
			if m != ModeSerial && m != ModeParallel {
				return fmt.Errorf("begin record with invalid mode %d", p[0])
			}
			p = p[1:]
			hops, rest, err := takeUvarint(p)
			if err != nil {
				return fmt.Errorf("begin hops: %w", err)
			}
			t, rest, err := takeF64(rest)
			if err != nil {
				return fmt.Errorf("begin time: %w", err)
			}
			if !finite(t) || t < 0 || hops > 1<<62 {
				return fmt.Errorf("begin record with invalid state hops=%d t=%v", hops, t)
			}
			p = rest
			st.seenBegin = true
			st.mode = m
			st.startHops = int64(hops)
			st.startTime = t
			st.hops = int64(hops)
			st.time = t
			continue
		}
		if !st.seenBegin {
			return fmt.Errorf("record 0x%02x before begin", op)
		}
		var rec Record
		switch {
		case op >= opHopBase && op <= opHopBase|7:
			slot, rest, err := takeUvarint(p)
			if err != nil {
				return fmt.Errorf("hop slot: %w", err)
			}
			if slot >= maxSlot {
				return fmt.Errorf("hop slot %d out of range", slot)
			}
			dt, rest, err := takeF64(rest)
			if err != nil {
				return fmt.Errorf("hop Δt: %w", err)
			}
			if !finite(dt) || dt < 0 {
				return fmt.Errorf("hop with invalid Δt %v", dt)
			}
			p = rest
			st.hops++
			st.time += dt
			rec = Record{Kind: KindHop, Slot: int(slot), Dir: int(op & 7), DeltaT: dt, Hops: st.hops, Time: st.time}
		case op == opClip:
			limit, rest, err := takeF64(p)
			if err != nil {
				return fmt.Errorf("clip limit: %w", err)
			}
			if !finite(limit) || limit < st.time {
				return fmt.Errorf("clip limit %v below clock %v", limit, st.time)
			}
			p = rest
			st.time = limit
			rec = Record{Kind: KindClip, Limit: limit, Hops: st.hops, Time: st.time}
		case op == opSegment:
			seg, rest, err := takeUvarint(p)
			if err != nil {
				return fmt.Errorf("segment index: %w", err)
			}
			dur, rest, err := takeF64(rest)
			if err != nil {
				return fmt.Errorf("segment duration: %w", err)
			}
			t, rest, err := takeF64(rest)
			if err != nil {
				return fmt.Errorf("segment time: %w", err)
			}
			hops, rest, err := takeUvarint(rest)
			if err != nil {
				return fmt.Errorf("segment hops: %w", err)
			}
			if !finite(dur) || dur < 0 || !finite(t) || t < st.time || int64(hops) < st.hops || hops > 1<<62 {
				return fmt.Errorf("segment record out of order (d=%v t=%v hops=%d)", dur, t, hops)
			}
			p = rest
			st.hops = int64(hops)
			st.time = t
			rec = Record{Kind: KindSegment, Seg: seg, Duration: dur, Time: t, Hops: int64(hops)}
		case op == opSnapshot || op == opRecovery:
			hops, rest, err := takeUvarint(p)
			if err != nil {
				return fmt.Errorf("record hops: %w", err)
			}
			t, rest, err := takeF64(rest)
			if err != nil {
				return fmt.Errorf("record time: %w", err)
			}
			s, rest, err := takeString(rest)
			if err != nil {
				return fmt.Errorf("record string: %w", err)
			}
			if int64(hops) != st.hops || t != st.time {
				return fmt.Errorf("record state (hops=%d t=%v) disagrees with accumulated (hops=%d t=%v)", hops, t, st.hops, st.time)
			}
			p = rest
			if op == opSnapshot {
				if strings.ContainsAny(s, "/\\") || s == "" {
					return fmt.Errorf("snapshot name %q is not a bare file name", s)
				}
				rec = Record{Kind: KindSnapshot, Hops: int64(hops), Time: t, Name: s}
			} else {
				rec = Record{Kind: KindRecovery, Hops: int64(hops), Time: t, Detail: s}
			}
		default:
			return fmt.Errorf("unknown opcode 0x%02x", op)
		}
		if emit != nil {
			emit(rec)
		}
	}
	return nil
}

// Decode reads a whole trajectory log from r, tolerating a torn tail
// (truncated or CRC-failing final frame) but failing closed on any
// corruption inside a CRC-valid frame. It never panics on hostile
// input; FuzzReadTrajLog holds it to that.
func Decode(r io.Reader) (*Log, error) {
	data, err := io.ReadAll(io.LimitReader(r, 1<<30))
	if err != nil {
		return nil, fmt.Errorf("traj: reading log: %w", err)
	}
	var recs []Record
	emit := func(rec Record) { recs = append(recs, rec) }
	st := &scanState{}
	end, err := frame.Scan(data, Magic, func(payload []byte, _ int64) error {
		if err := parseRecords(payload, st, emit); err != nil {
			return fmt.Errorf("corrupt record in CRC-valid frame: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("traj: %w", err)
	}
	return &Log{Mode: st.mode, StartHops: st.startHops, StartTime: st.startTime, Begun: st.seenBegin,
		Records: recs, Truncated: end < int64(len(data)), Hops: st.hops, Time: st.time}, nil
}

// ReadLog decodes the trajectory log at path.
func ReadLog(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

func takeUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated or overlong uvarint")
	}
	return v, p[n:], nil
}

func takeF64(p []byte) (float64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p)), p[8:], nil
}

func takeString(p []byte) (string, []byte, error) {
	n, rest, err := takeUvarint(p)
	if err != nil {
		return "", nil, err
	}
	if n > maxStringLen {
		return "", nil, fmt.Errorf("string length %d exceeds limit", n)
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(rest[:n]), rest[n:], nil
}
