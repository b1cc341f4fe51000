package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// syncBuffer is an io.Writer safe to read while realMain writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// waitForAddr polls the startup banner for the bound address.
func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "listening on ") {
				return strings.Fields(line)[3]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never announced its address; output so far:\n%s", out.String())
	return ""
}

// sampleVETs collects vacancy environments from a dilute Fe–Cu box.
func sampleVETs(tb *encoding.Tables, n int, seed uint64) []encoding.VET {
	box := lattice.NewBox(12, 12, 12, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.05, 0.0, rng.New(seed))
	r := rng.New(seed + 1)
	out := make([]encoding.VET, 0, n)
	for len(out) < n {
		c := lattice.Vec{X: 2 * int(r.Uint64()%12), Y: 2 * int(r.Uint64()%12), Z: 2 * int(r.Uint64()%12)}
		old := box.Get(c)
		box.Set(c, lattice.Vacancy)
		vet := tb.NewVET()
		tb.FillVET(vet, c, box.Get)
		box.Set(c, old)
		out = append(out, vet)
	}
	return out
}

// dialNode opens a one-address fleet to addr: no retries and no
// fallback, so a request fails exactly when the node does.
func dialNode(addr string, tb *encoding.Tables) (*evalserve.FleetClient, error) {
	return evalserve.DialFleet([]string{addr}, tb.A, tb.Rcut, evalserve.FleetOptions{Retries: -1})
}

// TestServeConcurrentClients boots the real command on an ephemeral
// port, hammers it with 8 concurrent TCP clients, and shuts it down
// with a signal — the CLI acceptance path end to end.
func TestServeConcurrentClients(t *testing.T) {
	out := &syncBuffer{}
	errOut := &syncBuffer{}
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{
			"-addr", "127.0.0.1:0", "-cutoff", "5.8",
			"-cache", "256",
		}, out, errOut, sig)
	}()
	addr := waitForAddr(t, out)

	// Reference results through one sequential client.
	tb := encoding.New(units.LatticeConstantFe, 5.8)
	ref, err := dialNode(addr, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	vets := sampleVETs(tb, 10, 31)
	want := make([]evalserve.Result, len(vets))
	for i, vet := range vets {
		if want[i], err = ref.Evaluate(vet); err != nil {
			t.Fatal(err)
		}
	}

	const clients = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := dialNode(addr, tb)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(vets)
				res, err := cl.Evaluate(vets[i])
				if err != nil {
					errs <- err
					return
				}
				if res != want[i] {
					errs <- io.ErrUnexpectedEOF // sentinel: mismatch
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client failed: %v", err)
	}

	sig <- os.Interrupt
	select {
	case code := <-exit:
		if code != exitClean {
			t.Fatalf("exit code %d, want %d; stderr:\n%s", code, exitClean, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on signal")
	}
	// The node's exit report counts every lookup the clients made.
	m := regexp.MustCompile(`\((\d+) hits, (\d+) misses`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("shutdown did not print service stats; output:\n%s", out.String())
	}
	hits, _ := strconv.Atoi(m[1])
	misses, _ := strconv.Atoi(m[2])
	if got := hits + misses; got != len(vets)+clients*rounds {
		t.Fatalf("lookup count %d, want %d", got, len(vets)+clients*rounds)
	}
}

// TestServeUsageErrors: unloadable potentials and bad flags exit 2
// without binding a socket.
func TestServeUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"missing nnp file": {"-potential", "/nonexistent/potential.tknnp"},
		"unknown flag":     {"-definitely-not-a-flag"},
		"deleted -batch":   {"-batch", "8"},
		"deleted -workers": {"-workers", "2"},
		"deleted -shards":  {"-shards", "4"},
		"deleted -f32":     {"-f32"},
	} {
		if code := realMain(args, io.Discard, io.Discard, nil); code != exitUsage {
			t.Errorf("%s: exit code %d, want %d", name, code, exitUsage)
		}
	}
}

// waitForTelemetryAddr polls the startup banner for the telemetry
// endpoint address.
func waitForTelemetryAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if i := strings.Index(line, "telemetry on http://"); i >= 0 {
				return strings.TrimSuffix(line[i+len("telemetry on http://"):], "/metrics")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never announced its telemetry address; output so far:\n%s", out.String())
	return ""
}

// TestServeTelemetryEndpoint boots the command with -telemetry and
// scrapes /metrics and /healthz while it serves live traffic: the
// long-lived service must be observable without restarting it.
func TestServeTelemetryEndpoint(t *testing.T) {
	out := &syncBuffer{}
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{
			"-addr", "127.0.0.1:0", "-cutoff", "5.8", "-cache", "64",
			"-telemetry", "127.0.0.1:0",
		}, out, io.Discard, sig)
	}()
	addr := waitForAddr(t, out)
	teleAddr := waitForTelemetryAddr(t, out)

	cl, err := dialNode(addr, encoding.New(units.LatticeConstantFe, 5.8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, vet := range sampleVETs(cl.Tables(), 4, 17) {
		if _, err := cl.Evaluate(vet); err != nil {
			t.Fatal(err)
		}
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + teleAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	if body := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %q", body)
	}
	metrics := get("/metrics")
	for _, fam := range []string{
		"tkmc_eval_cache_hits_total",
		"tkmc_eval_cache_misses_total",
		"tkmc_eval_batches_total",
	} {
		if !strings.Contains(metrics, "# TYPE "+fam+" counter") {
			t.Errorf("/metrics missing family %s:\n%s", fam, metrics)
		}
	}
	if !strings.Contains(metrics, "tkmc_eval_cache_misses_total 4") {
		t.Errorf("expected 4 recorded misses in /metrics:\n%s", metrics)
	}

	sig <- os.Interrupt
	select {
	case code := <-exit:
		if code != exitClean {
			t.Fatalf("exit code %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on signal")
	}
}

// waitForAddrs polls the startup banners until n nodes have announced.
func waitForAddrs(t *testing.T, out *syncBuffer, n int) []string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var addrs []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "listening on ") {
				addrs = append(addrs, strings.Fields(line)[3])
			}
		}
		if len(addrs) >= n {
			return addrs[:n]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("only got %q; output so far:\n%s", out.String(), out.String())
	return nil
}

// TestServeFleetNodes boots -fleet 3 in one process, shards a client
// across the announced nodes, and verifies bit-identical service plus
// clean three-node shutdown.
func TestServeFleetNodes(t *testing.T) {
	out := &syncBuffer{}
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- realMain(
			[]string{"-addr", "127.0.0.1:0", "-fleet", "3", "-cutoff", "3.0", "-idle", "30"},
			out, io.Discard, sig)
	}()
	addrs := waitForAddrs(t, out, 3)

	fc, err := evalserve.DialFleet(addrs, units.LatticeConstantFe, 3.0, evalserve.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tb := fc.Tables()
	vets := sampleVETs(tb, 8, 70)
	first := make([]float64, len(vets))
	for i, vet := range vets {
		initial, _, _ := fc.HopEnergies(vet)
		first[i] = initial
	}
	for i, vet := range vets {
		if initial, _, _ := fc.HopEnergies(vet); initial != first[i] {
			t.Fatalf("system %d: repeat served %v, first pass %v", i, initial, first[i])
		}
	}
	st := fc.Stats()
	for addr, up := range st.NodeUp {
		if !up {
			t.Fatalf("node %s down in a healthy in-process fleet", addr)
		}
	}
	fc.Close()

	sig <- os.Interrupt
	if code := <-exit; code != exitClean {
		t.Fatalf("exit code %d, want %d\n%s", code, exitClean, out.String())
	}
	if n := strings.Count(out.String(), "tkmc-serve: evalserve:"); n != 3 {
		t.Fatalf("want 3 per-node stat reports, got %d:\n%s", n, out.String())
	}
}

// TestServeFleetDrain: SIGTERM with live fleet sessions must flip
// /readyz to 503, refuse new connections, let the in-flight sessions
// keep evaluating until their clients disconnect, and exit 0 with every
// node's stats reported — the graceful half of crash-only shutdown.
func TestServeFleetDrain(t *testing.T) {
	out := &syncBuffer{}
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- realMain(
			[]string{"-addr", "127.0.0.1:0", "-fleet", "3", "-cutoff", "3.0",
				"-drain", "30", "-telemetry", "127.0.0.1:0"},
			out, io.Discard, sig)
	}()
	addrs := waitForAddrs(t, out, 3)

	// The telemetry banner carries the /readyz address.
	var teleAddr string
	deadline := time.Now().Add(10 * time.Second)
	for teleAddr == "" && time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if i := strings.Index(line, "telemetry on http://"); i >= 0 {
				teleAddr = strings.TrimSuffix(line[i+len("telemetry on http://"):], "/metrics")
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if teleAddr == "" {
		t.Fatalf("no telemetry banner:\n%s", out.String())
	}
	if resp, err := http.Get("http://" + teleAddr + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain readyz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// One live session per node, all held open across the drain.
	tb := encoding.New(units.LatticeConstantFe, 3.0)
	clients := make([]*evalserve.FleetClient, len(addrs))
	for i, addr := range addrs {
		cl, err := dialNode(addr, tb)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	vets := sampleVETs(tb, 2, 91)
	want := make([]float64, len(clients))
	for i, cl := range clients {
		res, err := cl.Evaluate(vets[0])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Initial
	}

	sig <- os.Interrupt

	// New connections must be refused once the drain begins.
	refused := false
	deadline = time.Now().Add(10 * time.Second)
	for !refused && time.Now().Before(deadline) {
		cl, err := dialNode(addrs[0], tb)
		if err != nil {
			refused = true
			break
		}
		cl.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Fatal("draining node still accepted new sessions")
	}
	if resp, err := http.Get("http://" + teleAddr + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain readyz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	// In-flight sessions keep evaluating — bit-identically — while the
	// drain waits for them.
	for i, cl := range clients {
		res, err := cl.Evaluate(vets[0])
		if err != nil {
			t.Fatalf("mid-drain eval on node %d: %v", i, err)
		}
		if res.Initial != want[i] {
			t.Fatalf("mid-drain eval on node %d: %v, want %v", i, res.Initial, want[i])
		}
	}
	for _, cl := range clients {
		cl.Close()
	}

	if code := <-exit; code != exitClean {
		t.Fatalf("drain exit %d, want %d\n%s", code, exitClean, out.String())
	}
	if n := strings.Count(out.String(), "tkmc-serve: evalserve:"); n != 3 {
		t.Fatalf("want 3 per-node stat reports, got %d:\n%s", n, out.String())
	}
	if strings.Contains(out.String(), "force-closed") {
		t.Fatalf("drain force-closed sessions that had already disconnected:\n%s", out.String())
	}
}
