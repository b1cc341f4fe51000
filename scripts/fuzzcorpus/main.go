// Command fuzzcorpus regenerates the checked-in seed corpora under
// the packages' testdata/fuzz/ directories, so `go test` (which runs
// every fuzz target once per corpus entry) exercises the interesting
// decode paths even on machines that have never run `go test -fuzz`.
// The binary seeds — a real TKMCBOX2 checkpoint, a legacy TKMCBOX1
// snapshot, CRC-framed logs and sealed files, correctly framed wire
// messages — cannot be hand-typed, so they are built here with the same
// code that produces them in production (internal/frame for every CRC)
// and serialised in the `go test fuzz v1` corpus format.
//
// Usage (from the repo root):
//
//	go run ./scripts/fuzzcorpus
//
// Regeneration is deterministic: the same sources produce byte-for-byte
// the same corpus files.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"tensorkmc/internal/core"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/frame"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/traj"
	"tensorkmc/internal/units"
)

// Wire opcodes, mirrored from internal/evalserve/wire.go (they are
// unexported there; the values are part of the frozen wire format, so
// duplicating them here is safe).
const (
	opHello    = 0x01 // retired version-1 hello: a server must refuse it
	opStats    = 0x03 // retired JSON stats request: a server must refuse it
	opHello2   = 0x04
	opEval2    = 0x05 // retired version-2 eval (a byte per site): a server must refuse it
	opEval     = 0x06
	opHelloOK  = 0x81 // retired version-1 acknowledgement: a client must refuse it
	opResult   = 0x82
	opHelloOK2 = 0x84
	opError    = 0x7f
)

// wireVersion mirrors the protocol version the server speaks.
const wireVersion = 3

// traceContextSize mirrors telemetry.ContextSize: the 16-byte trace/span
// prefix every eval frame carries before the packed key.
const traceContextSize = 16

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fuzzcorpus:", err)
		os.Exit(1)
	}
}

func run() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repo root (go.mod not found): %w", err)
	}
	if err := writeDeckCorpus("internal/input/testdata/fuzz/FuzzParseDeck"); err != nil {
		return err
	}
	if err := writeCheckpointCorpus("internal/core/testdata/fuzz/FuzzLoadCheckpoint"); err != nil {
		return err
	}
	if err := writeWireCorpus("internal/evalserve/testdata/fuzz/FuzzWireFrame"); err != nil {
		return err
	}
	if err := writeTrajCorpus("internal/traj/testdata/fuzz/FuzzReadTrajLog"); err != nil {
		return err
	}
	return writeFrameCorpus("internal/frame/testdata/fuzz/FuzzCodec")
}

// writeSeed serialises one corpus entry in the `go test fuzz v1`
// format. Go's fuzz corpus encodes each argument as a Go literal;
// strconv.Quote produces exactly the escaping the decoder expects.
func writeSeed(dir, name, typ string, data []byte) error {
	body := "go test fuzz v1\n" + typ + "(" + strconv.Quote(string(data)) + ")\n"
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

func writeDeckCorpus(dir string) error {
	if err := freshDir(dir); err != nil {
		return err
	}
	seeds := map[string]string{
		// A full production deck touching every family of keys,
		// including the control-plane job keys (tenant, priority).
		"full-deck": `# Fe-Cu thermal aging, control-plane submission
cells        100 100 100
lattice      2.87
cu           0.0134
vacancy      0.000008
temperature  573
cutoff       6.5
duration     1e-3
seed         42
potential    eam
ranks        2 2 1
tstop        2e-8
snapshots    10
dump         solute
checkpoint   state.box
checkpoint_every 1e-4
max_retries  3
audit_every  5
exchange_timeout 30
tenant       alice
priority     high
`,
		"minimal":      "cells 10 10 10\nduration 1e-8\n",
		"restart-nnp":  "restart prev.box\nduration 1e-8\npotential nnp weights.nnp\n",
		"eval-remote":  "cells 8 8 8\nduration 1e-8\neval_server 127.0.0.1:7865\n",
		"crlf-comment": "cells 10 10 10 # inline comment\r\nduration 1e-8\r\n",
		"case-mixed":   "CELLS 2 2 2\nDuration 1\nPriority LOW\n",
		// Rejected decks: the validation contract the fuzz target asserts.
		"bad-duration":        "cells 1 1 1\nduration 0\n",
		"bad-no-geometry":     "duration 1e-8\n",
		"bad-ckevery-orphan":  "cells 1 1 1\nduration 1\ncheckpoint_every 1\n",
		"bad-priority":        "cells 1 1 1\nduration 1\npriority urgent\n",
		"bad-negative-knobs":  "cells 1 1 1\nduration 1\nmax_retries -2\n",
		"bad-truncated-cells": "cells\n",
	}
	for name, text := range seeds {
		if err := writeSeed(dir, name, "string", []byte(text)); err != nil {
			return err
		}
	}
	return nil
}

func writeCheckpointCorpus(dir string) error {
	if err := freshDir(dir); err != nil {
		return err
	}
	// The same geometry the fuzz target seeds with f.Add: small enough
	// that one fuzz execution is cheap, rich enough (alloy + vacancies
	// + RNG stream) that every section of the format is present.
	box := lattice.NewBox(3, 3, 2, 2.87)
	lattice.FillRandomAlloy(box, 0.1, 0.05, rng.New(7))
	full := &core.Checkpoint{
		Box:       box,
		Time:      1.5e-8,
		Hops:      321,
		Segment:   4,
		HasRNG:    true,
		RNG:       [4]uint64{11, 12, 13, 14},
		Vacancies: lattice.Vacancies(box),
	}
	var buf bytes.Buffer
	if err := full.Save(&buf); err != nil {
		return err
	}
	valid := buf.Bytes()

	parallel := &core.Checkpoint{Box: box, Time: 2e-8, Hops: 5, Segment: 9}
	var pbuf bytes.Buffer
	if err := parallel.Save(&pbuf); err != nil {
		return err
	}

	var legacy bytes.Buffer // bare TKMCBOX1 box snapshot
	if err := box.Save(&legacy); err != nil {
		return err
	}

	truncated := bytes.Clone(valid[:len(valid)/2])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10 // corrupt the body, keep magic + CRC frame

	seeds := map[string][]byte{
		"valid-full":     valid,
		"valid-parallel": pbuf.Bytes(),
		"legacy-box1":    legacy.Bytes(),
		"truncated-body": truncated,
		"bitflip-body":   flipped,
		"magic-only":     bytes.Clone(valid[:8]),
	}
	for name, data := range seeds {
		if err := writeSeed(dir, name, "[]byte", data); err != nil {
			return err
		}
	}
	return nil
}

func writeWireCorpus(dir string) error {
	if err := freshDir(dir); err != nil {
		return err
	}
	frame := func(payload []byte) []byte {
		out := make([]byte, 4+len(payload))
		binary.LittleEndian.PutUint32(out, uint32(len(payload)))
		copy(out[4:], payload)
		return out
	}

	hello := make([]byte, 17)
	hello[0] = opHello
	binary.LittleEndian.PutUint64(hello[1:], math.Float64bits(units.LatticeConstantFe))
	binary.LittleEndian.PutUint64(hello[9:], math.Float64bits(units.CutoffShort))

	// An untraced eval frame sized for the short-cutoff geometry the
	// fuzz server speaks — the one seed that can reach the backend: a
	// zero trace context, then the packed key.
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	vet := tb.NewVET()
	vet[0], vet[1] = lattice.Vacancy, lattice.Cu // one Cu beside the vacancy, rest Fe matrix
	key, err := tb.PackEnv(nil, vet)
	if err != nil {
		return err
	}
	eval := append(make([]byte, 1+traceContextSize), key...)
	eval[0] = opEval

	result := make([]byte, 74)
	result[0] = opResult
	binary.LittleEndian.PutUint64(result[1:], math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(result[9:], math.Float64bits(0.75))
	result[73] = 0x01 // valid mask: direction 0 only

	helloOK := make([]byte, 5)
	helloOK[0] = opHelloOK
	binary.LittleEndian.PutUint32(helloOK[1:], uint32(tb.NAll))

	// The live handshake: the 18-byte hello2 (trailing max-version
	// byte), its 6-byte acknowledgement, and the eval frame carrying a
	// trace context.
	hello2 := make([]byte, 18)
	copy(hello2, hello)
	hello2[0] = opHello2
	hello2[17] = wireVersion

	helloOK2 := make([]byte, 6)
	helloOK2[0] = opHelloOK2
	binary.LittleEndian.PutUint32(helloOK2[1:], uint32(tb.NAll))
	helloOK2[5] = wireVersion

	traced := bytes.Clone(eval)
	binary.LittleEndian.PutUint64(traced[1:], 0xfeedc0dedeadbeef) // trace ID
	binary.LittleEndian.PutUint64(traced[9:], 0x0123456789abcdef) // span ID

	badVer := bytes.Clone(hello2)
	badVer[17] = 0xff // far past the server's version: it must clamp, not crash
	oldVer := bytes.Clone(hello2)
	oldVer[17] = 1 // below the version floor: refused like the version-1 hello
	v2 := bytes.Clone(hello2)
	v2[17] = 2 // the byte-per-site protocol: refused naming version 3

	// The retired version-2 eval: trace context, then one species byte
	// per site. A version-3 session must refuse its opcode.
	eval2 := make([]byte, 1+traceContextSize+tb.NAll)
	eval2[0] = opEval2
	copy(eval2[1:], traced[1:1+traceContextSize])
	eval2[1+traceContextSize+1] = 1 // one Cu beside the vacancy, rest Fe matrix

	seeds := map[string][]byte{
		"hello":          frame(hello),
		"hello-ok":       frame(helloOK),
		"hello2":         frame(hello2),
		"hello2-ok":      frame(helloOK2),
		"hello2-bad-ver": frame(badVer),
		"hello2-old-ver": frame(oldVer),
		"hello2-v2":      frame(v2),
		"eval":           frame(eval),
		"eval-traced":    frame(traced),
		"eval-torn":      frame(traced[:1+traceContextSize/2]), // truncated trace context
		"eval2":          frame(eval2),
		"eval2-torn":     frame(eval2[:1+traceContextSize/2]),
		"stats":          frame([]byte{opStats}),
		"result":         frame(result),
		"error-generic":  frame(append([]byte{opError, 0x00}, "boom"...)),
		"bad-empty":      {0, 0, 0, 0},
		"bad-oversized":  {0xff, 0xff, 0xff, 0xff, 1},
		"bad-truncated":  {4, 0, 0, 0, 1},
		"session-pair":   append(frame(hello2), frame([]byte{opStats})...),
		"session-pair2":  append(frame(hello2), frame(traced)...),
	}
	for name, data := range seeds {
		if err := writeSeed(dir, name, "[]byte", data); err != nil {
			return err
		}
	}
	return nil
}

// writeTrajCorpus builds TKMCTRJ1 trajectory-log seeds with the real
// recorder (a valid serial log with a snapshot and a clip, a valid
// parallel segment log) plus the hostile shapes the decoder must
// survive: torn tails, bit flips that break a frame CRC, a
// correctly-framed garbage opcode, and non-logs.
func writeTrajCorpus(dir string) error {
	if err := freshDir(dir); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "trajcorpus")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	serialPath := filepath.Join(tmp, "serial.tkmctrj")
	sr, err := traj.Open(serialPath, traj.ModeSerial, 0)
	if err != nil {
		return err
	}
	if err := sr.Begin(0, 0); err != nil {
		return err
	}
	err = sr.Snapshot(0, 0, func(p string) error {
		return os.WriteFile(p, []byte("snapshot stand-in"), 0o644)
	})
	if err != nil {
		return err
	}
	sr.Hop(0, 3, 1e-9)
	sr.Hop(1, 5, 2e-9)
	sr.Hop(0, 7, 1.5e-9)
	sr.Clip(1e-8)
	if err := sr.Commit(3, 1e-8); err != nil {
		return err
	}
	if err := sr.Close(); err != nil {
		return err
	}
	serial, err := os.ReadFile(serialPath)
	if err != nil {
		return err
	}

	parallelPath := filepath.Join(tmp, "parallel.tkmctrj")
	pr, err := traj.Open(parallelPath, traj.ModeParallel, 0)
	if err != nil {
		return err
	}
	if err := pr.Begin(0, 0); err != nil {
		return err
	}
	pr.Segment(0, 1e-8, 1e-8, 40)
	pr.Segment(1, 1e-8, 2e-8, 85)
	if err := pr.Commit(85, 2e-8); err != nil {
		return err
	}
	if err := pr.Close(); err != nil {
		return err
	}
	parallel, err := os.ReadFile(parallelPath)
	if err != nil {
		return err
	}

	// A correctly CRC-framed frame holding an unknown opcode: the torn-
	// tail repair must NOT swallow it — it is a hard decode error.
	badOpcode := frame.AppendFrame(bytes.Clone(serial), []byte{0xff})

	bitflip := bytes.Clone(serial)
	bitflip[len(bitflip)/2] ^= 0x10 // breaks that frame's CRC: torn tail

	seeds := map[string][]byte{
		"valid-serial":   serial,
		"valid-parallel": parallel,
		"truncated-tail": bytes.Clone(serial[:len(serial)-5]),
		"bitflip-frame":  bitflip,
		"bad-opcode":     badOpcode,
		"magic-only":     bytes.Clone(serial[:8]),
		"not-a-log":      []byte("definitely not a trajectory log"),
	}
	for name, data := range seeds {
		if err := writeSeed(dir, name, "[]byte", data); err != nil {
			return err
		}
	}
	return nil
}

// writeFrameCorpus builds seeds for the codec fuzz target with
// internal/frame itself: a TKMCWAL1 log of job records, a sealed file,
// and the hostile shapes — a torn tail, a bit flip, a zero length
// prefix, a cut trailer. The sealed seeds keep the magic and body of
// the control plane's retired TKMCSNAP snapshot: the codec reads any
// magic, so they stay as generic sealed-file seeds, and the WAL seeds
// keep that controller's "lsn" field for the same reason.
func writeFrameCorpus(dir string) error {
	if err := freshDir(dir); err != nil {
		return err
	}
	wal := []byte("TKMCWAL1")
	for _, rec := range []string{
		`{"lsn":1,"job":{"id":"job-000000","seq":0,"tenant":"alice","priority":2,"deck":"cells 4 4 4\nduration 1e-9\n# \u003c\u0026\u003e\n","state":"queued","duration":1e-9,"time":0,"hops":0}}`,
		`{"lsn":2,"job":{"id":"job-000000","seq":0,"priority":1,"deck":"cells 4 4 4\n","state":"completed","duration":1e-9,"time":1e-9,"hops":33}}`,
		`{"lsn":3,"job":{"id":"job-000001","seq":1,"priority":0,"deck":"","state":"failed","duration":0,"time":0,"hops":0,"error":"boom"}}`,
	} {
		wal = frame.AppendFrame(wal, []byte(rec))
	}
	state := `{"lsn":3,"next_seq":2,"jobs":[{"id":"job-000001","seq":1,"priority":0,"deck":"","state":"failed","duration":0,"time":0,"hops":0}]}`
	var snap bytes.Buffer
	err := frame.Seal(&snap, "TKMCSNAP", func(w io.Writer) error {
		_, err := w.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(state))), state...))
		return err
	})
	if err != nil {
		return err
	}
	walFlip, snapFlip := bytes.Clone(wal), bytes.Clone(snap.Bytes())
	walFlip[len(walFlip)/2] ^= 0x10 // breaks the middle record's CRC
	snapFlip[20] ^= 0x01            // inside the JSON body: fails the trailer CRC

	seeds := map[string][]byte{
		"wal":             wal,
		"wal-torn":        bytes.Clone(wal[:len(wal)-3]),
		"wal-bitflip":     walFlip,
		"wal-zero-length": append(bytes.Clone(wal), 0, 0, 0, 0, 0, 0, 0, 0),
		"snapshot":        snap.Bytes(),
		"snapshot-flip":   snapFlip,
		"snapshot-short":  bytes.Clone(snap.Bytes()[:snap.Len()-2]),
	}
	for name, data := range seeds {
		if err := writeSeed(dir, name, "[]byte", data); err != nil {
			return err
		}
	}
	return nil
}
