package fault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := WriteFileAtomic(path, false, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("content = %q", got)
	}
}

func TestWriteFileAtomicBackupRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	write := func(content string) error {
		return WriteFileAtomic(path, true, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	if err := write("v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".bak"); !os.IsNotExist(err) {
		t.Fatal("backup created with no prior file")
	}
	if err := write("v2"); err != nil {
		t.Fatal(err)
	}
	cur, _ := os.ReadFile(path)
	bak, err := os.ReadFile(path + ".bak")
	if err != nil {
		t.Fatal(err)
	}
	if string(cur) != "v2" || string(bak) != "v1" {
		t.Fatalf("rotation wrong: cur=%q bak=%q", cur, bak)
	}
}

// TestWriteFileAtomicCrashMidWrite simulates a writer dying partway
// through: the previous good file (and backup) must be untouched and no
// temp litter may remain.
func TestWriteFileAtomicCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	good := func(content string) error {
		return WriteFileAtomic(path, true, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	if err := good("v1"); err != nil {
		t.Fatal(err)
	}
	if err := good("v2"); err != nil {
		t.Fatal(err)
	}

	err := WriteFileAtomic(path, true, func(w io.Writer) error {
		fw := &Writer{W: w, Limit: 3}
		_, err := io.WriteString(fw, "v3-never-lands")
		return err
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	cur, _ := os.ReadFile(path)
	bak, _ := os.ReadFile(path + ".bak")
	if string(cur) != "v2" || string(bak) != "v1" {
		t.Fatalf("crash corrupted state: cur=%q bak=%q", cur, bak)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp litter left behind: %s", e.Name())
		}
	}
}

func TestWriterPartialThenFail(t *testing.T) {
	var sb strings.Builder
	fw := &Writer{W: &sb, Limit: 4}
	n, err := fw.Write([]byte("abcdef"))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	if sb.String() != "abcd" {
		t.Fatalf("passthrough = %q", sb.String())
	}
	if _, err := fw.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("subsequent write should fail, got %v", err)
	}
	custom := errors.New("disk on fire")
	fw2 := &Writer{W: io.Discard, Limit: 0, Err: custom}
	if _, err := fw2.Write([]byte("x")); !errors.Is(err, custom) {
		t.Fatalf("custom error not propagated: %v", err)
	}
}

func TestTransportErrorClassification(t *testing.T) {
	inner := errors.New("connection reset by peer")
	var err error = &TransportError{Op: "eval", Addr: "10.0.0.7:7865", Err: inner}
	if !errors.Is(err, inner) {
		t.Fatal("TransportError does not unwrap to the underlying failure")
	}
	var te *TransportError
	if !errors.As(fmt.Errorf("core: aborted: %w", err), &te) {
		t.Fatal("wrapped TransportError not recoverable with errors.As")
	}
	if te.Op != "eval" || te.Addr != "10.0.0.7:7865" {
		t.Fatalf("fields lost through wrapping: %+v", te)
	}
	var ce *CorruptionError
	if errors.As(err, &ce) {
		t.Fatal("a transport failure must never classify as corruption")
	}
	if msg := err.Error(); !strings.Contains(msg, "eval") || !strings.Contains(msg, "10.0.0.7:7865") {
		t.Fatalf("message omits op or address: %q", msg)
	}
}

// ErrInjected is the sentinel error Writer fails with by default.
var ErrInjected = errors.New("fault: injected write error")

// Writer is an io.Writer that passes bytes through to W until Limit
// bytes have been written, then fails with Err (ErrInjected if nil).
// The failing write is partial: bytes up to the limit still reach W,
// simulating a crash that truncates mid-record.
type Writer struct {
	W     io.Writer
	Limit int
	Err   error

	written int
}

// Write implements io.Writer with the injected failure.
func (fw *Writer) Write(p []byte) (int, error) {
	failErr := fw.Err
	if failErr == nil {
		failErr = ErrInjected
	}
	remaining := fw.Limit - fw.written
	if remaining <= 0 {
		return 0, failErr
	}
	if len(p) <= remaining {
		n, err := fw.W.Write(p)
		fw.written += n
		return n, err
	}
	n, err := fw.W.Write(p[:remaining])
	fw.written += n
	if err != nil {
		return n, err
	}
	return n, failErr
}
