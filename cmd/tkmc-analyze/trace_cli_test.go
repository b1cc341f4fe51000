package main

import (
	"path/filepath"
	"strings"
	"testing"

	"tensorkmc/internal/telemetry"
)

// TestTraceSubcommand drives runTrace over two flushed process journals
// and checks the rendered tree nests the cross-process span.
func TestTraceSubcommand(t *testing.T) {
	dir := t.TempDir()
	engine := telemetry.NewSetOn(telemetry.NewJournal(16))
	root := telemetry.NewTrace()
	run := engine.Trace().Phase(telemetry.PhaseRun).StartUnder(root)
	seg := engine.Trace().PhaseAt(telemetry.PhaseRun, telemetry.PhaseSegment).StartUnder(run.Context())
	server := telemetry.NewSetOn(telemetry.NewJournal(16))
	serve := server.Trace().PhaseAt(telemetry.PhaseEvalServe, telemetry.PhaseServe).StartUnder(seg.Context())
	serve.EndMsg("cache=miss")
	seg.EndMsg("")
	run.EndMsg("")

	enginePath := filepath.Join(dir, "engine.jsonl")
	serverPath := filepath.Join(dir, "server.jsonl")
	if err := engine.Events().FlushFile(enginePath); err != nil {
		t.Fatal(err)
	}
	if err := server.Events().FlushFile(serverPath); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := runTrace(&sb, []string{root.TraceID(), enginePath, serverPath}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "trace "+root.TraceID()+": 3 spans") {
		t.Fatalf("header missing:\n%s", out)
	}
	// The serve span is indented two levels under run -> segment.
	if !strings.Contains(out, "    serve cache=miss") {
		t.Fatalf("serve span not nested under the segment:\n%s", out)
	}
	if !strings.Contains(out, "["+serverPath+"]") {
		t.Fatalf("serve span not attributed to its source journal:\n%s", out)
	}
}

// TestTraceSubcommandErrors: a trace with no spans is an error naming
// the ID, malformed IDs and missing args are rejected up front.
func TestTraceSubcommandErrors(t *testing.T) {
	dir := t.TempDir()
	set := telemetry.NewSetOn(telemetry.NewJournal(4))
	set.Trace().Phase("lonely").StartUnder(telemetry.NewTrace()).EndMsg("")
	path := filepath.Join(dir, "j.jsonl")
	if err := set.Events().FlushFile(path); err != nil {
		t.Fatal(err)
	}

	err := runTrace(&strings.Builder{}, []string{"00000000deadbeef", path})
	if err == nil || !strings.Contains(err.Error(), "no spans for trace 00000000deadbeef") {
		t.Fatalf("absent trace: err = %v", err)
	}
	if err := runTrace(&strings.Builder{}, []string{"not-hex", path}); err == nil {
		t.Fatal("malformed trace ID accepted")
	}
	if err := runTrace(&strings.Builder{}, []string{"00000000deadbeef"}); err == nil ||
		!strings.Contains(err.Error(), "trace wants a trace ID") {
		t.Fatalf("missing journal args: err = %v", err)
	}
	if err := runTrace(&strings.Builder{}, []string{"00000000deadbeef", filepath.Join(dir, "absent.jsonl")}); err == nil {
		t.Fatal("unreadable journal accepted")
	}
}

// TestUsageListsSubcommands pins the actionable-usage contract: a typo'd
// subcommand must surface every invocation form, not a bare flag error.
func TestUsageListsSubcommands(t *testing.T) {
	var sb strings.Builder
	usage(&sb)
	out := sb.String()
	for _, want := range []string{"-box", "replay", "trace <trace-id>", "subcommands:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("usage missing %q:\n%s", want, out)
		}
	}
}
