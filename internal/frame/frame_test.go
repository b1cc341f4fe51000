package frame

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const testMagic = "TESTLOG1"

// openT opens a log and collects what its scan visits.
func openT(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var seen []string
	l, err := Open(path, testMagic, func(p []byte, _ int64) error {
		seen = append(seen, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, seen
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func readHex(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(data)
}

// TestLogBytes pins the frame layout: magic, then u32 LE length, payload,
// u32 LE CRC-32 (IEEE) of the payload.
func TestLogBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	end, err := l.Append([]byte("abc"))
	if err != nil || end != 8+4+3+4 {
		t.Fatalf("Append: end=%d err=%v", end, err)
	}
	appendAll(t, l, "hello")
	want := hex.EncodeToString([]byte(testMagic)) +
		"03000000" + hex.EncodeToString([]byte("abc")) + "c2412435" +
		"05000000" + hex.EncodeToString([]byte("hello")) + "86a61036"
	if got := readHex(t, path); got != want {
		t.Fatalf("log bytes\n got %s\nwant %s", got, want)
	}
}

// TestLogReopen: a reopened log visits every frame in order with its end
// offset, and appends continue after the last one.
func TestLogReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	appendAll(t, l, "one", "two")
	l.Close()

	var ends []int64
	l2, err := Open(path, testMagic, func(_ []byte, end int64) error {
		ends = append(ends, end)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ends) != "[19 30]" {
		t.Fatalf("frame ends %v, want [19 30]", ends)
	}
	appendAll(t, l2, "three")
	l2.Close()
	if _, seen := openT(t, path); !slices.Equal(seen, []string{"one", "two", "three"}) {
		t.Fatalf("reopened log holds %q", seen)
	}
}

// TestLogShortHeader: a crash between file creation and the header
// reaching the disk leaves 0–7 bytes. No frame can follow a short
// header, so open re-stamps the magic instead of refusing to start.
func TestLogShortHeader(t *testing.T) {
	for cut := 0; cut < len(testMagic); cut++ {
		path := filepath.Join(t.TempDir(), "l")
		if err := os.WriteFile(path, []byte(testMagic)[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, seen := openT(t, path)
		if len(seen) != 0 {
			t.Fatalf("%d-byte header visited %q", cut, seen)
		}
		appendAll(t, l, "x")
		l.Close()
		if _, seen := openT(t, path); !slices.Equal(seen, []string{"x"}) {
			t.Fatalf("%d-byte header: reopened log holds %q", cut, seen)
		}
	}
}

// TestLogBadMagic: a foreign file is refused and left untouched.
func TestLogBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	foreign := []byte("NOTALOG1\x01\x00\x00\x00x")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testMagic, nil); err == nil {
		t.Fatal("foreign magic accepted")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, foreign) {
		t.Fatalf("refused file was modified: %q", got)
	}
}

// TestLogTornTail: a crash mid-append leaves part of a frame. At every
// cut point, open keeps each whole frame, truncates the rest and appends
// on a clean tail.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "l")
	l, _ := openT(t, path)
	appendAll(t, l, "first", "second", "third")
	l.Close()
	raw, _ := os.ReadFile(path)
	whole := len(raw) - (8 + len("third"))
	for cut := 1; cut < 8+len("third"); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d", cut))
		if err := os.WriteFile(torn, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, seen := openT(t, torn)
		if !slices.Equal(seen, []string{"first", "second"}) {
			t.Fatalf("cut=%d: visited %q", cut, seen)
		}
		if fi, _ := os.Stat(torn); fi.Size() != int64(whole) {
			t.Fatalf("cut=%d: file is %d bytes after open, want %d", cut, fi.Size(), whole)
		}
		appendAll(t, l, "fourth")
		l.Close()
		if _, seen := openT(t, torn); !slices.Equal(seen, []string{"first", "second", "fourth"}) {
			t.Fatalf("cut=%d: after repair the log holds %q", cut, seen)
		}
	}
}

// TestLogBitFlip: a bit flip inside a frame fails its CRC; the scan stops
// at the last whole frame before it rather than returning garbage.
func TestLogBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	appendAll(t, l, "first", "second", "third")
	l.Close()
	raw, _ := os.ReadFile(path)
	for _, off := range []int{8 + 13, 8 + 13 + 4, 8 + 13 + 4 + 3, 8 + 13 + 4 + 6} { // second frame: length, payload, CRC
		mut := bytes.Clone(raw)
		mut[off] ^= 0x20
		end, err := Scan(mut, testMagic, nil)
		if err != nil || end != 8+13 {
			t.Fatalf("flip at %d: scan ends at %d (err %v), want %d", off, end, err, 8+13)
		}
	}
}

// TestLogVisitPolicy: a visit function decides what a CRC-valid payload
// it cannot parse means. ErrTorn ends the scan there like a torn tail;
// any other error fails the open and leaves the file alone.
func TestLogVisitPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	appendAll(t, l, "good", "bad", "good")
	l.Close()
	raw, _ := os.ReadFile(path)

	boom := errors.New("boom")
	_, err := Open(path, testMagic, func(p []byte, _ int64) error {
		if string(p) == "bad" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("visit error not returned: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, raw) {
		t.Fatal("failed open modified the log")
	}

	l2, err := Open(path, testMagic, func(p []byte, _ int64) error {
		if string(p) == "bad" {
			return ErrTorn
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if _, seen := openT(t, path); !slices.Equal(seen, []string{"good"}) {
		t.Fatalf("ErrTorn kept %q", seen)
	}
}

// TestLogAppendRefusesOversized: a payload a scan could never read back
// is refused before anything is written, and the log stays usable.
func TestLogAppendRefusesOversized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	appendAll(t, l, "before")
	if _, err := l.Append(make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: %v", err)
	}
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	appendAll(t, l, strings.Repeat("m", MaxPayload), "after")
	l.Close()
	if _, seen := openT(t, path); len(seen) != 3 || seen[0] != "before" || len(seen[1]) != MaxPayload || seen[2] != "after" {
		t.Fatalf("reopened log holds %d payloads", len(seen))
	}
}

// TestLogRewindAfterFailedWrite: a failed append must not leave a torn
// frame, or every later scan would stop there and silently drop the
// frames appended (and acknowledged) after the failure. The partial
// frame is written by hand; the append then fails for real on a handle
// that refuses positioned writes, and its rewind must remove the tear.
func TestLogRewindAfterFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	appendAll(t, l, "one")
	appendOnly, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer appendOnly.Close()
	if _, err := appendOnly.Write([]byte{0x07, 0x00}); err != nil { // the torn frame
		t.Fatal(err)
	}
	good := l.f
	l.f = appendOnly // WriteAt fails on an O_APPEND handle; Truncate works
	if _, err := l.Append([]byte("lost")); err == nil {
		t.Fatal("append through a failing handle succeeded")
	}
	l.f = good
	if l.err != nil {
		t.Fatalf("rewind failed the log: %v", l.err)
	}
	appendAll(t, l, "two")
	l.Close()
	if _, seen := openT(t, path); !slices.Equal(seen, []string{"one", "two"}) {
		t.Fatalf("reopened log holds %q, want both frames past the repaired tear", seen)
	}
}

// TestLogFailsClosed: when the torn frame cannot be removed (here the
// file descriptor is gone), the log must refuse every later call instead
// of acknowledging frames a scan can never reach.
func TestLogFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	appendAll(t, l, "one")
	l.f.Close() // every write and truncate now fails
	if _, err := l.Append([]byte("two")); err == nil {
		t.Fatal("append on a dead file succeeded")
	}
	if l.err == nil {
		t.Fatal("unrepairable tail did not fail the log")
	}
	l.f, _ = os.OpenFile(path, os.O_RDWR, 0) // even a healthy handle is not trusted again
	if _, err := l.Append([]byte("three")); err == nil {
		t.Fatal("append on a failed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync on a failed log succeeded")
	}
	if err := l.Truncate(8); err == nil {
		t.Fatal("truncate on a failed log succeeded")
	}
}

// TestLogSyncFailureSticky: after a failed fsync the frame's on-disk
// state is unknowable, so the log refuses everything until a reopen.
func TestLogSyncFailureSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	appendAll(t, l, "one")
	dead, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	good := l.f
	l.f = dead
	if err := l.Sync(); err == nil {
		t.Fatal("fsync on a closed handle succeeded")
	}
	l.f = good
	if _, err := l.Append([]byte("two")); err == nil {
		t.Fatal("append after a failed fsync succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("fsync failure was not sticky")
	}
}

// TestLogTruncate: cutting back to a frame boundary drops the frames
// after it, and appends continue from there.
func TestLogTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	l, _ := openT(t, path)
	end, err := l.Append([]byte("keep"))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "drop", "drop")
	if err := l.Truncate(end); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "new")
	l.Close()
	if _, seen := openT(t, path); !slices.Equal(seen, []string{"keep", "new"}) {
		t.Fatalf("truncated log holds %q", seen)
	}
}

// TestSealBytes pins the sealed layout: magic, body, u32 LE CRC-32 of
// magic and body.
func TestSealBytes(t *testing.T) {
	var buf bytes.Buffer
	err := Seal(&buf, "TESTSEAL", func(w io.Writer) error {
		_, err := w.Write([]byte("xy"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := hex.EncodeToString([]byte("TESTSEALxy")) + "77ed5d45"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("sealed bytes\n got %s\nwant %s", got, want)
	}
	body, err := Unseal(buf.Bytes(), "TESTSEAL")
	if err != nil || string(body) != "xy" {
		t.Fatalf("Unseal: %q %v", body, err)
	}
}

// TestUnsealRejects: every bit flip, truncation, appended byte or
// foreign magic is refused.
func TestUnsealRejects(t *testing.T) {
	var buf bytes.Buffer
	Seal(&buf, "TESTSEAL", func(w io.Writer) error {
		_, err := w.Write([]byte("a sealed body"))
		return err
	})
	good := buf.Bytes()
	for i := range good {
		mut := bytes.Clone(good)
		mut[i] ^= 0x01
		if _, err := Unseal(mut, "TESTSEAL"); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := Unseal(good[:cut], "TESTSEAL"); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := Unseal(append(bytes.Clone(good), 0), "TESTSEAL"); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := Unseal(good, "OTHERMAG"); err == nil {
		t.Fatal("foreign magic accepted")
	}
}

// TestSaveLoadBackup: a corrupt primary falls back to the rotated .bak;
// with both bad the error names both; with neither present errors.Is
// sees the missing primary.
func TestSaveLoadBackup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s")
	save := func(body string) {
		t.Helper()
		err := Save(path, "TESTSEAL", func(w io.Writer) error {
			_, err := w.Write([]byte(body))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var got string
	load := func() error {
		return Load(path, func(_ string, data []byte) error {
			body, err := Unseal(data, "TESTSEAL")
			got = string(body)
			return err
		})
	}
	save("first")
	save("second")
	if err := load(); err != nil || got != "second" {
		t.Fatalf("primary load: %q %v", got, err)
	}
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	if err := load(); err != nil || got != "first" {
		t.Fatalf("fallback load: %q %v", got, err)
	}
	os.WriteFile(path+".bak", raw, 0o644)
	if err := load(); err == nil || !strings.Contains(err.Error(), "backup also failed") {
		t.Fatalf("double failure: %v", err)
	}
	os.Remove(path)
	os.Remove(path + ".bak")
	if err := load(); !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "no backup present") {
		t.Fatalf("missing files: %v", err)
	}
}
