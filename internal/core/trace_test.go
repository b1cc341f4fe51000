package core

import (
	"bytes"
	"strings"
	"testing"

	"tensorkmc/internal/telemetry"
)

// TestTraceBitIdenticalSerial: tracing mints IDs off the wall clock and
// a process-local counter, never an RNG stream, so a serial run's final
// checkpoint is byte-identical with tracing on or off.
func TestTraceBitIdenticalSerial(t *testing.T) {
	cfgOff := telemetryTestConfig(t.TempDir(), telemetry.NewSet())
	cfgOn := telemetryTestConfig(t.TempDir(), telemetry.NewSet())
	cfgOn.Trace = true
	off := runToCheckpoint(t, cfgOff, 3e-8)
	on := runToCheckpoint(t, cfgOn, 3e-8)
	if !bytes.Equal(off, on) {
		t.Fatalf("serial checkpoints differ with tracing on vs off (%d vs %d bytes)", len(off), len(on))
	}
}

// TestTraceBitIdenticalParallel: same contract for the sublattice
// engine, where every segment opens a span.
func TestTraceBitIdenticalParallel(t *testing.T) {
	cfgOff := telemetryTestConfig(t.TempDir(), telemetry.NewSet())
	cfgOff.Ranks = [3]int{2, 1, 1}
	cfgOn := telemetryTestConfig(t.TempDir(), telemetry.NewSet())
	cfgOn.Ranks = [3]int{2, 1, 1}
	cfgOn.Trace = true
	off := runToCheckpoint(t, cfgOff, 3e-8)
	on := runToCheckpoint(t, cfgOn, 3e-8)
	if !bytes.Equal(off, on) {
		t.Fatalf("parallel checkpoints differ with tracing on vs off (%d vs %d bytes)", len(off), len(on))
	}
}

// TestTraceSpansInJournal: a traced run emits run and segment spans
// into the process journal, all under the one trace ID the simulation
// reports, with segments nested under the run span.
func TestTraceSpansInJournal(t *testing.T) {
	set := telemetry.NewSet()
	cfg := telemetryTestConfig(t.TempDir(), set)
	cfg.Trace = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	id := sim.TraceID()
	if id == "" {
		t.Fatal("traced simulation reports no trace ID")
	}
	if _, err := sim.Run(3e-8, nil); err != nil {
		t.Fatal(err)
	}

	var runEv, segEv *telemetry.Event
	for _, e := range set.Events().Events() {
		if e.Type != telemetry.SpanEventType {
			continue
		}
		if e.Trace != id {
			t.Fatalf("span outside the run's trace: %+v", e)
		}
		e := e
		switch {
		case strings.HasPrefix(e.Msg, "run"):
			runEv = &e
		case strings.HasPrefix(e.Msg, "segment"):
			segEv = &e
		}
	}
	if runEv == nil || segEv == nil {
		t.Fatalf("run/segment spans missing from the journal (run=%v segment=%v)", runEv, segEv)
	}
	if segEv.Parent != runEv.Span {
		t.Fatalf("segment parent %s != run span %s", segEv.Parent, runEv.Span)
	}
}

// TestTraceParentAdopted: a configured TraceParent (what the control
// plane mints at admission) roots the simulation's spans instead of a
// fresh trace.
func TestTraceParentAdopted(t *testing.T) {
	set := telemetry.NewSet()
	cfg := telemetryTestConfig(t.TempDir(), set)
	cfg.Trace = true
	cfg.TraceParent = "00000000feedbeef"
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if got := sim.TraceID(); got != "00000000feedbeef" {
		t.Fatalf("TraceID() = %s, want the adopted parent", got)
	}
	if _, err := sim.Run(1e-8, nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range set.Events().Events() {
		if e.Type == telemetry.SpanEventType && e.Trace != "00000000feedbeef" {
			t.Fatalf("span escaped the adopted trace: %+v", e)
		}
	}
}

// TestTraceParentRejected: a malformed TraceParent is a configuration
// error, not a silently fresh trace.
func TestTraceParentRejected(t *testing.T) {
	cfg := telemetryTestConfig(t.TempDir(), telemetry.NewSet())
	cfg.Trace = true
	cfg.TraceParent = "not-hex"
	if _, err := New(cfg); err == nil {
		t.Fatal("malformed TraceParent accepted")
	}
}

// TestTraceOffNoSpans: with Trace false nothing hits the journal and
// TraceID is empty — the default run is untraced.
func TestTraceOffNoSpans(t *testing.T) {
	set := telemetry.NewSet()
	cfg := telemetryTestConfig(t.TempDir(), set)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if id := sim.TraceID(); id != "" {
		t.Fatalf("untraced simulation reports trace ID %s", id)
	}
	if _, err := sim.Run(1e-8, nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range set.Events().Events() {
		if e.Type == telemetry.SpanEventType {
			t.Fatalf("untraced run recorded a span: %+v", e)
		}
	}
}
