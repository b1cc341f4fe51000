package ctl

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testAPI(t *testing.T, cfg Config) (*Plane, *httptest.Server) {
	t.Helper()
	p := openTestPlane(t, cfg)
	srv := httptest.NewServer(APIHandler(p))
	t.Cleanup(srv.Close)
	return p, srv
}

func decodeRec(t *testing.T, resp *http.Response) JobRecord {
	t.Helper()
	defer resp.Body.Close()
	var rec JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestAPILifecycle drives the full HTTP surface: submit, list, get,
// readiness, cancellation and the typed error bodies.
func TestAPILifecycle(t *testing.T) {
	p, srv := testAPI(t, Config{MaxRunning: 1})
	client := srv.Client()

	// Liveness and readiness both green on a fresh controller.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}

	resp, err := client.Post(srv.URL+"/jobs", "text/plain",
		strings.NewReader(testDeck("alice", "normal", 1, 2e-8, 1e-8)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	rec := decodeRec(t, resp)

	// Invalid deck → typed 400 with a JSON body.
	resp, err = client.Post(srv.URL+"/jobs", "text/plain", strings.NewReader("bogus 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	var he HTTPError
	json.NewDecoder(resp.Body).Decode(&he)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || he.Code != "invalid_deck" {
		t.Fatalf("bad deck: %d %+v", resp.StatusCode, he)
	}

	resp, err = client.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobRecord
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != rec.ID {
		t.Fatalf("list: %+v", list)
	}

	resp, err = client.Get(srv.URL + "/jobs/" + rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeRec(t, resp); got.ID != rec.ID {
		t.Fatalf("get: %+v", got)
	}
	resp, err = client.Get(srv.URL + "/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}

	waitJob(t, p, rec.ID, "completion", func(r JobRecord) bool { return r.State.Terminal() })

	// Cancelling a finished job is a 409.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+rec.ID, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel terminal: %d", resp.StatusCode)
	}
}

// TestAPISheddingHeaders: quota and drain shedding carry the status,
// the Retry-After hint and the typed code.
func TestAPISheddingHeaders(t *testing.T) {
	p, srv := testAPI(t, Config{MaxRunning: 1, TenantQueued: 1})
	client := srv.Client()
	submit := func(deck string) *http.Response {
		resp, err := client.Post(srv.URL+"/jobs", "text/plain", strings.NewReader(deck))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// The first job must still be in flight when the second submit lands,
	// or the quota it is supposed to fill is already free again — so give
	// it a duration far beyond test timescales. It never runs to the end:
	// the drain below parks it at its first segment boundary.
	resp := submit(testDeck("alice", "normal", 1, 1e-4, 1e-8))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp = submit(testDeck("alice", "normal", 2, 1e-9, 1e-9))
	var he HTTPError
	json.NewDecoder(resp.Body).Decode(&he)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || he.Code != "tenant_quota" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("quota shed: %d %+v retry-after=%q", resp.StatusCode, he, resp.Header.Get("Retry-After"))
	}

	go p.Drain(60 * time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for !p.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp = submit(testDeck("bob", "normal", 3, 1e-9, 1e-9))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain shed: %d", resp.StatusCode)
	}
	resp, err := client.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}
}

// TestAPIEventStream: the SSE endpoint streams the job's flight
// recorder — segment observables included — and closes with a done
// event carrying the terminal record.
func TestAPIEventStream(t *testing.T) {
	_, srv := testAPI(t, Config{})
	client := srv.Client()
	resp, err := client.Post(srv.URL+"/jobs", "text/plain",
		strings.NewReader(testDeck("alice", "normal", 1, 3e-8, 1e-8)))
	if err != nil {
		t.Fatal(err)
	}
	rec := decodeRec(t, resp)

	stream, err := client.Get(srv.URL + "/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var sawObservable, sawDone bool
	var final JobRecord
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"type":"observable"`) {
			sawObservable = true
		}
		if line == "event: done" {
			sawDone = true
			continue
		}
		if sawDone && strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if !sawObservable {
		t.Fatal("stream carried no segment observables")
	}
	if final.State != StateCompleted {
		t.Fatalf("done record: %+v", final)
	}

	// Unknown jobs 404 instead of hanging a stream open.
	resp, err = client.Get(srv.URL + "/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream: %d", resp.StatusCode)
	}
}

// Draining reports whether the controller has begun its drain.
func (p *Plane) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}
