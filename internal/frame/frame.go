// Package frame is the one place that knows how a TensorKMC durable file
// is framed. Two shapes cover every format:
//
// A log (TKMCWAL1, TKMCTRJ1) is an 8-byte magic followed by frames of
//
//	uint32 LE payload length | payload | uint32 LE CRC-32 (IEEE) of payload
//
// with payloads of 1..MaxPayload bytes. Anything after the last whole,
// CRC-valid frame is a torn tail — the signature of a crash mid-append —
// and is truncated on open; nothing in it was ever acknowledged.
//
// A sealed file (TKMCBOX2) is magic | body | uint32 LE CRC-32
// (IEEE) of magic and body. It is written whole through
// fault.WriteFileAtomic, which rotates the previous file to path+".bak",
// and loaded from the primary with a fallback to that backup.
//
// What a payload or body means, and what to do with a CRC-valid payload
// that does not parse, is the caller's business.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"tensorkmc/internal/fault"
)

// MaxPayload bounds one log frame's payload. A scan treats a larger
// length prefix as a torn tail, so Append refuses to write one.
const MaxPayload = 4 << 20

// ErrTooLarge reports a payload Append refused because a scan could
// never read it back.
var ErrTooLarge = errors.New("frame: payload exceeds the frame cap")

// ErrTorn, returned by a scan's visit function, ends the scan at the
// start of the frame being visited, exactly as if that frame and
// everything after it were a torn tail.
var ErrTorn = errors.New("frame: treat the rest of the log as a torn tail")

// Scan walks the frames of a log image that starts with magic. It calls
// visit (if non-nil) with each CRC-valid payload, which aliases data, and
// the image offset just past its frame. It returns the offset just past
// the last whole frame: len(data) for an intact log, less when a torn
// tail follows. A visit error other than ErrTorn aborts the scan and is
// returned as is.
func Scan(data []byte, magic string, visit func(payload []byte, end int64) error) (int64, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return 0, fmt.Errorf("frame: not a %s file", magic)
	}
	end := int64(len(magic))
	for {
		rest := data[end:]
		if len(rest) < 8 {
			return end, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		if n == 0 || n > MaxPayload || uint64(len(rest)) < 8+uint64(n) {
			return end, nil
		}
		payload := rest[4 : 4+n]
		if binary.LittleEndian.Uint32(rest[4+n:]) != crc32.ChecksumIEEE(payload) {
			return end, nil
		}
		next := end + 8 + int64(n)
		if visit != nil {
			if err := visit(payload, next); errors.Is(err, ErrTorn) {
				return end, nil
			} else if err != nil {
				return end, err
			}
		}
		end = next
	}
}

// Log is an open append-only log. It is not safe for concurrent use.
type Log struct {
	f   *os.File
	end int64 // offset just past the last whole frame: where the next append starts
	err error // sticky failure: the file no longer matches end
}

// Open opens the log at path, creating it if absent, and scans it with
// visit (see Scan). A file shorter than the magic — new, or cut by a
// crash before its header reached the disk — cannot hold a frame, so it
// is reset and re-stamped; a foreign magic is refused. A torn tail is
// truncated so the next append extends a clean log.
func Open(path, magic string, visit func(payload []byte, end int64) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("frame: opening log: %w", err)
	}
	end, err := load(f, magic, visit)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("frame: opening %s: %w", path, err)
	}
	return &Log{f: f, end: end}, nil
}

func load(f *os.File, magic string, visit func([]byte, int64) error) (int64, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	if len(data) < len(magic) {
		data = []byte(magic)
		if err := f.Truncate(0); err != nil {
			return 0, err
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			return 0, err
		}
	}
	end, err := Scan(data, magic, visit)
	if err == nil && end < int64(len(data)) {
		err = f.Truncate(end)
	}
	return end, err
}

// Append writes one frame holding payload at the end of the log and
// returns the offset just past it. It refuses an empty payload or one
// over MaxPayload (ErrTooLarge) before writing anything. A failed write
// is rewound to the last whole frame; if that rewind fails too, the log
// fails closed and refuses every later call.
func (l *Log) Append(payload []byte) (int64, error) {
	if l.err != nil {
		return 0, l.failed()
	}
	if len(payload) == 0 {
		return 0, errors.New("frame: empty payload")
	}
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("%w: %d bytes, cap %d", ErrTooLarge, len(payload), MaxPayload)
	}
	buf := AppendFrame(make([]byte, 0, len(payload)+8), payload)
	if _, err := l.f.WriteAt(buf, l.end); err != nil {
		// Remove whatever part of the frame reached the file. Left in
		// place, it would end every later scan there and silently drop
		// the frames appended (and acknowledged) after it. If it cannot
		// be removed, refusing every later call until a reopen
		// truncates the tear is the only answer that never loses an
		// acknowledged frame.
		if terr := l.f.Truncate(l.end); terr != nil {
			l.err = fmt.Errorf("write failed (%v) and torn-frame truncate failed: %w", err, terr)
		}
		return 0, fmt.Errorf("frame: writing frame: %w", err)
	}
	l.end += int64(len(buf))
	return l.end, nil
}

// AppendFrame appends payload to dst as one frame: length, payload, CRC.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// Sync makes every appended frame durable. A failed fsync is sticky:
// the kernel may have dropped the dirty pages, so what the file holds is
// unknowable until a reopen scans it.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.failed()
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("fsync failed: %w", err)
		return l.failed()
	}
	return nil
}

// Truncate cuts the log back to off, the end offset of a whole frame (or
// the header length), so the next append starts there. A failed
// truncate fails the log closed, since the file's length is unknown.
func (l *Log) Truncate(off int64) error {
	if l.err != nil {
		return l.failed()
	}
	if err := l.f.Truncate(off); err != nil {
		l.err = fmt.Errorf("truncate failed: %w", err)
		return l.failed()
	}
	l.end = off
	return nil
}

// Close releases the file. Frames not yet synced are durable only as
// far as the kernel got them to disk.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

func (l *Log) failed() error {
	return fmt.Errorf("frame: log failed, reopen to recover: %w", l.err)
}

// Seal writes a sealed image to w: magic, the body write streams, and the
// CRC-32 of both, buffering the writes.
func Seal(w io.Writer, magic string, write func(io.Writer) error) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(bw, crc)
	if _, err := io.WriteString(mw, magic); err != nil {
		return err
	}
	if err := write(mw); err != nil {
		return err
	}
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32())); err != nil {
		return err
	}
	return bw.Flush()
}

// Unseal checks a sealed image's magic and CRC trailer and returns the
// body between them, which aliases data.
func Unseal(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("frame: not a %s file", magic)
	}
	n := len(data) - 4
	stored, sum := binary.LittleEndian.Uint32(data[n:]), crc32.ChecksumIEEE(data[:n])
	if stored != sum {
		return nil, fmt.Errorf("frame: %s checksum mismatch: stored %#08x, computed %#08x", magic, stored, sum)
	}
	return data[len(magic):n], nil
}

// Save writes a sealed file crash-safely: temp file, fsync, rename, with
// the previous file rotated to path+".bak" (fault.WriteFileAtomic).
func Save(path, magic string, write func(io.Writer) error) error {
	return fault.WriteFileAtomic(path, true, func(w io.Writer) error {
		return Seal(w, magic, write)
	})
}

// Load reads the file at path and hands its name and bytes to parse,
// falling back to the rotated path+".bak" when the primary is missing,
// unreadable or rejected by parse — the recovery path after a crash
// mid-write. When both fail, the error wraps the primary's cause (so
// errors.Is sees an absent primary) and names the backup's.
func Load(path string, parse func(path string, data []byte) error) error {
	err := loadFile(path, parse)
	if err == nil {
		return nil
	}
	bakErr := loadFile(path+".bak", parse)
	if bakErr == nil {
		return nil
	}
	if errors.Is(bakErr, os.ErrNotExist) {
		return fmt.Errorf("%w (no backup present)", err)
	}
	return fmt.Errorf("%w (backup also failed: %v)", err, bakErr)
}

func loadFile(path string, parse func(string, []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return parse(path, data)
}
