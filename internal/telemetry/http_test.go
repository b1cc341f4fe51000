package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestHTTPEndpoints spins up the opt-in endpoint on an ephemeral port
// and exercises every route: Prometheus text on /metrics, the liveness
// probe, the JSONL event dump with its dropped-count header, and pprof.
func TestHTTPEndpoints(t *testing.T) {
	s := NewSet()
	s.Reg().Counter(MetricStepTotal, "Executed KMC hops.").Add(11)
	s.Trace().PhaseAt(PhaseRun, PhaseSegment).Observe(3 * time.Millisecond)
	// Swap in a tiny journal so /events exercises the dropped-count
	// header without thousands of records.
	small := NewJournal(2)
	s.Journal = small
	for i := 0; i < 5; i++ {
		small.Record("evt", "n=%d", i)
	}

	srv, err := Serve("127.0.0.1:0", Handler(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		MetricStepTotal + " 11",
		`tkmc_phase_seconds_count{phase="run/segment"} 1`,
		"# TYPE " + MetricStepTotal + " counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, body = get("/events")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/events content type %q", ct)
	}
	if resp.Header.Get("X-Events-Dropped") != "3" {
		t.Errorf("X-Events-Dropped %q, want 3", resp.Header.Get("X-Events-Dropped"))
	}
	if lines := strings.Count(body, "\n"); lines != 2 {
		t.Errorf("/events lines %d, want 2:\n%s", lines, body)
	}

	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", resp.StatusCode)
	}

	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("close: %v", err)
	}
	// Close is idempotent and nil-safe.
	var nilSrv *HTTPServer
	if err := nilSrv.Close(); err != nil {
		t.Fatal(err)
	}
}
