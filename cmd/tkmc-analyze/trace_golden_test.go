package main

import (
	"strings"
	"testing"
)

// goldenTrace is the rendering of testdata/trace_client.jsonl and
// testdata/trace_server.jsonl: a client journal (run → segment → eval
// requests with pick, retry and failover legs) and a server journal
// (serve and evaluate spans with a queue-wait annotation, an orphan
// serve whose client span was still open at the crash flush, non-span
// events, and a second trace the assembly must skip). The journals are
// checked-in bytes, so this pins the on-disk span format that journals
// written by earlier builds keep assembling under.
const goldenTrace = `trace d6139fcea1b01bda: 12 spans
  run duration=2e-08  (7.721ms)  [testdata/trace_client.jsonl]
    segment t=1.0002e-08 hops=412  (7.717ms)  [testdata/trace_client.jsonl]
      eval node=10.0.0.1:7077  (3.309ms)  [testdata/trace_client.jsonl]
        pick node=10.0.0.1:7077  [testdata/trace_client.jsonl]
        serve cache=miss  (3.306ms)  [testdata/trace_server.jsonl]
          evaluate gemm=2.151ms  (2.188ms)  [testdata/trace_server.jsonl]
            queue-wait 0.018ms  [testdata/trace_server.jsonl]
      eval node=10.0.0.1:7077  (2.201ms)  [testdata/trace_client.jsonl]
        retry node=10.0.0.2:7077 attempt=1  [testdata/trace_client.jsonl]
        failover node=10.0.0.1:7077 ring-pos=1  [testdata/trace_client.jsonl]
        serve cache=hit  (1.092ms)  [testdata/trace_server.jsonl]
  serve cache=hit  (46.7µs)  [testdata/trace_server.jsonl]  <parent span missing>
`

// TestTraceJournalGolden renders the checked-in journals and compares
// the output byte for byte.
func TestTraceJournalGolden(t *testing.T) {
	var sb strings.Builder
	err := runTrace(&sb, []string{"d6139fcea1b01bda",
		"testdata/trace_client.jsonl", "testdata/trace_server.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != goldenTrace {
		t.Fatalf("rendering drifted from the golden:\n got:\n%s\nwant:\n%s", got, goldenTrace)
	}
}
