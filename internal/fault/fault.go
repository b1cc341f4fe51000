// Package fault provides the crash-safety primitives behind the
// checkpoint/restart subsystem and the fault-injection hooks its tests
// use. The paper's headline run spans 27.5M cores, where node failure is
// a statistical certainty over a multi-hour job; the reproduction's
// substitute for that MTBF reality is (a) durable on-disk state that a
// mid-write crash can never corrupt, and (b) controlled injection of the
// faults a real machine would produce.
//
// The durability contract of WriteFileAtomic is the standard
// temp-file → fsync → rename sequence: at every instant there is either
// the complete old file, the complete new file, or (with backup
// rotation) a complete ".bak" — never a truncated hybrid.
package fault

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// CorruptionError reports silent numerical corruption caught by a
// tripwire in a hot path: a NaN or infinite energy out of the potential,
// or a non-finite total propensity in the rate kernel — the signature of
// a bit-flipped weight or a memory fault rather than a transient
// communication failure. Supervisors must treat it as non-retryable:
// the corrupted state is in memory, so replaying the segment
// deterministically reproduces it.
type CorruptionError struct {
	// Subsystem names the tripwire that fired ("kmc", "nnp").
	Subsystem string
	// Detail describes the corrupt value and where it was seen.
	Detail string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("fault: numerical corruption in %s: %s", e.Subsystem, e.Detail)
}

// TransportError reports a failed network interaction with a remote
// service: a refused or dropped connection, a read/write deadline
// expiry, a truncated frame. It is the transient counterpart of
// CorruptionError — the remote state machine is fine, only the path to
// it failed — so supervisors and clients must treat it as retryable:
// the evaluation protocol is idempotent (content-addressed requests,
// exact-f64 deterministic replies), which makes resending a request
// after reconnect or failing over to a replica always safe.
type TransportError struct {
	// Op names the failed interaction ("dial", "hello", "eval", "stats").
	Op string
	// Addr is the remote endpoint.
	Addr string
	// Err is the underlying transport failure.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("fault: transport %s to %s failed: %v", e.Op, e.Addr, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As chains.
func (e *TransportError) Unwrap() error { return e.Err }

// WriteFileAtomic writes a file durably: write streams the content into
// a temporary file in the destination directory, which is fsynced,
// closed, and atomically renamed over path. If backup is true and path
// already exists, the previous file is first rotated to path+".bak", so
// a last-good copy survives even a crash between the two renames.
//
// If write (or any later step) fails, the destination and any existing
// backup are left untouched and the temporary file is removed.
func WriteFileAtomic(path string, backup bool, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fault: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()

	if err := write(tmp); err != nil {
		return fmt.Errorf("fault: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("fault: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fault: closing %s: %w", tmpName, err)
	}

	if backup {
		if _, statErr := os.Stat(path); statErr == nil {
			if err := os.Rename(path, path+".bak"); err != nil {
				return fmt.Errorf("fault: rotating backup of %s: %w", path, err)
			}
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("fault: committing %s: %w", path, err)
	}
	committed = true
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so the renames above are durable. Best
// effort: some filesystems reject directory fsync, which is not fatal.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}
