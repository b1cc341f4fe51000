package evalserve

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/units"
)

// quietFleet are the test defaults: no real backoff sleeps, fast
// deadlines, deterministic jitter.
func quietFleet() FleetOptions {
	return FleetOptions{
		Timeout: 2 * time.Second,
		Seed:    1,
		Sleep:   func(time.Duration) {},
	}
}

// startFleet boots n frontends over bit-identical backends (same seed ⇒
// same weights) and returns their addresses plus the shared potential.
func startFleet(t *testing.T, n int, seed uint64) ([]*Frontend, []string, *nnp.Potential) {
	t.Helper()
	fes := make([]*Frontend, n)
	addrs := make([]string, n)
	var pot *nnp.Potential
	for i := range fes {
		fes[i], pot = startFrontend(t, Options{Capacity: 256}, seed)
		addrs[i] = fes[i].Addr().String()
	}
	return fes, addrs, pot
}

// TestFleetRoundTrip: a 3-node fleet must return bit-identical energies
// to direct evaluation, and the ring must actually spread the key space
// across all nodes.
func TestFleetRoundTrip(t *testing.T) {
	fes, addrs, pot := startFleet(t, 3, 30)
	fc, err := DialFleet(addrs, units.LatticeConstantFe, units.CutoffShort, quietFleet())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	tb := fc.Tables()
	direct := nnp.NewLatticeEvaluator(pot, tb)
	vets := sampleVETs(t, tb, 12, 31)
	for i, vet := range vets {
		gi, gf, gv := fc.HopEnergies(vet)
		wi, wf, wv := direct.HopEnergies(vet)
		if gi != wi || gf != wf || gv != wv {
			t.Fatalf("system %d: fleet (%v) != direct (%v)", i, gi, wi)
		}
	}
	// Sharding check: with 12 distinct keys over 3 nodes, more than one
	// node must have seen traffic (all-on-one would defeat the caches).
	busy := 0
	for _, fe := range fes {
		if st := fe.srv.Stats(); st.Hits+st.Misses > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 3 nodes saw traffic — ring is not sharding", busy)
	}
	if st := fc.Stats(); st.Failovers != 0 || st.Fallbacks != 0 {
		t.Fatalf("healthy fleet reported faults: %+v", st)
	}
}

// TestFleetFailoverOnNodeKill: killing one node mid-run must not change
// a single bit of any answer — requests fail over to ring replicas and
// the dead node is marked down.
func TestFleetFailoverOnNodeKill(t *testing.T) {
	fes, addrs, pot := startFleet(t, 3, 32)
	opts := quietFleet()
	opts.Retries = 1
	set := telemetry.NewSet()
	opts.Telemetry = set
	fc, err := DialFleet(addrs, units.LatticeConstantFe, units.CutoffShort, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	tb := fc.Tables()
	direct := nnp.NewLatticeEvaluator(pot, tb)
	// The kill is only observable through keys the dead node *owns*:
	// replicas are tried only after the owner fails.
	vets := sampleOwned(t, fc, addrs[1], sampleVETs(t, tb, 10, 33))
	check := func(tag string) {
		t.Helper()
		for i, vet := range vets {
			gi, gf, gv := fc.HopEnergies(vet)
			wi, wf, wv := direct.HopEnergies(vet)
			if gi != wi || gf != wf || gv != wv {
				t.Fatalf("%s system %d: fleet (%v) != direct (%v)", tag, i, gi, wi)
			}
		}
	}
	check("before kill")

	fes[1].Close() // node dies mid-run
	check("after kill")
	check("steady state") // down node must now be skipped, not re-dialled every request

	st := fc.Stats()
	if st.NodeUp[addrs[1]] {
		t.Fatal("killed node still marked up")
	}
	if !st.NodeUp[addrs[0]] || !st.NodeUp[addrs[2]] {
		t.Fatalf("surviving nodes marked down: %+v", st.NodeUp)
	}
	if st.Failovers == 0 {
		t.Fatalf("no failovers recorded after node kill: %+v", st)
	}
	// The counters must surface through the metrics registry too.
	found := false
	for _, fam := range set.Registry.Snapshot().Families {
		if fam.Name != telemetry.MetricFleetFailovers {
			continue
		}
		for _, s := range fam.Series {
			if s.Value > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("failover counter missing from telemetry snapshot")
	}
}

// sampleOwned extends vets with further samples until addr owns at least
// one of them. A node only sees the requests it owns (replicas are tried
// only after the owner fails), and the kernel-assigned ports decide the
// ring's vnode carve-up, so a fixed sample can miss a node entirely.
func sampleOwned(t *testing.T, fc *FleetClient, addr string, vets []encoding.VET) []encoding.VET {
	t.Helper()
	owns := func() bool {
		for _, vet := range vets {
			if fc.ring.Owner(fc.tb.Fingerprint(vet)) == addr {
				return true
			}
		}
		return false
	}
	for seed := uint64(100); !owns(); seed++ {
		if seed == 150 {
			t.Fatalf("no sampled key owned by %s after 50 batches", addr)
		}
		vets = append(vets, sampleVETs(t, fc.tb, 10, seed)...)
	}
	return vets
}

// TestFleetProbeRecovery: a node that was down must be re-probed by
// traffic (every ProbeEvery-th routed request) and rejoin service once
// reachable — no wall-clock timers involved.
func TestFleetProbeRecovery(t *testing.T) {
	_, addrs, _ := startFleet(t, 2, 34)
	var reachable atomic.Bool // addrs[1] refuses dials until flipped
	opts := quietFleet()
	opts.ProbeEvery = 4
	opts.Dialer = func(addr string) (net.Conn, error) {
		if addr == addrs[1] && !reachable.Load() {
			return nil, errors.New("synthetic partition")
		}
		return net.Dial("tcp", addr)
	}
	fc, err := DialFleet(addrs, units.LatticeConstantFe, units.CutoffShort, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if fc.Stats().NodeUp[addrs[1]] {
		t.Fatal("partitioned node marked up after initial probe")
	}

	// Probes ride the requests the partitioned node owns.
	vets := sampleOwned(t, fc, addrs[1], sampleVETs(t, fc.Tables(), 8, 35))
	eval := func() {
		for _, vet := range vets {
			if _, err := fc.Evaluate(vet); err != nil {
				t.Fatalf("evaluate during partition: %v", err)
			}
		}
	}
	eval() // all served by the healthy node
	reachable.Store(true)
	for i := 0; i < 8 && !fc.Stats().NodeUp[addrs[1]]; i++ {
		eval() // traffic drives the probe
	}
	if !fc.Stats().NodeUp[addrs[1]] {
		t.Fatal("healed node never rejoined after probes")
	}
}

// TestFleetLocalFallback: with every node unreachable the local fused
// network must answer, bit-identically, and count the degradation.
func TestFleetLocalFallback(t *testing.T) {
	pot, tb := smallPotential(36)
	opts := quietFleet()
	opts.Retries = 0
	opts.Fallback = nnp.NewLatticeEvaluator(pot, tb)
	// Reserved port that refuses connections immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	fc, err := DialFleet([]string{dead}, units.LatticeConstantFe, units.CutoffShort, opts)
	if err != nil {
		t.Fatalf("fleet with fallback must start even with all nodes down: %v", err)
	}
	defer fc.Close()

	direct := nnp.NewLatticeEvaluator(pot, fc.Tables())
	vets := sampleVETs(t, fc.Tables(), 6, 37)
	for i, vet := range vets {
		gi, gf, gv := fc.HopEnergies(vet)
		wi, wf, wv := direct.HopEnergies(vet)
		if gi != wi || gf != wf || gv != wv {
			t.Fatalf("system %d: fallback (%v) != direct (%v)", i, gi, wi)
		}
	}
	if st := fc.Stats(); st.Fallbacks == 0 {
		t.Fatalf("fallback path not counted: %+v", st)
	}
}

// TestFleetAllDownNoFallback: with no fallback the client must fail with
// a typed transport error — never a panic the engine can't classify.
func TestFleetAllDownNoFallback(t *testing.T) {
	opts := quietFleet()
	opts.Retries = 0
	opts.Dialer = func(string) (net.Conn, error) { return nil, errors.New("no route") }
	if _, err := DialFleet([]string{"10.255.255.1:1"}, units.LatticeConstantFe, units.CutoffShort, opts); err == nil {
		t.Fatal("all-down fleet without fallback must refuse to start")
	} else {
		var te *fault.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("dial error not typed: %v", err)
		}
	}
}

// TestFleetChaosTransport: under a budgeted chaos schedule (truncated
// writes killing connections mid-frame) every request must still resolve
// bit-identically through retries — and the retries must be counted.
func TestFleetChaosTransport(t *testing.T) {
	_, addrs, pot := startFleet(t, 2, 40)
	// Budget 3 < the 4 attempts one node gets per request (1 + Retries),
	// so every request is guaranteed to converge somewhere; ProbeEvery=1
	// keeps even a down-marked node always reachable by its full retry
	// budget.
	chaos := NewConnChaos(41).WithTruncate(0.4).WithBudget(3)
	opts := quietFleet()
	opts.Retries = 3
	opts.ProbeEvery = 1
	opts.Dialer = chaos.Dialer(nil)
	fc, err := DialFleet(addrs, units.LatticeConstantFe, units.CutoffShort, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	tb := fc.Tables()
	direct := nnp.NewLatticeEvaluator(pot, tb)
	vets := sampleVETs(t, tb, 12, 42)
	for pass := 0; pass < 3; pass++ {
		for i, vet := range vets {
			gi, gf, gv := fc.HopEnergies(vet)
			wi, wf, wv := direct.HopEnergies(vet)
			if gi != wi || gf != wf || gv != wv {
				t.Fatalf("pass %d system %d: chaos fleet (%v) != direct (%v)", pass, i, gi, wi)
			}
		}
	}
	if st := chaos.Stats(); st.Truncated == 0 {
		t.Skipf("chaos schedule injected no faults (stats %+v)", st)
	}
	if st := fc.Stats(); st.Retries == 0 && st.Failovers == 0 {
		t.Fatalf("faults were injected but neither retries nor failovers recorded: %+v", st)
	}
}

// TestFleetCorruptionNoFailover: a corruption report must surface
// immediately as *fault.CorruptionError without failing over — masking a
// poisoned backend behind a replica would be worse than stopping.
func TestFleetCorruptionNoFailover(t *testing.T) {
	pot, tb := smallPotential(43)
	opts := quietFleet()
	opts.Fallback = nnp.NewLatticeEvaluator(pot, tb)
	fc, err := DialFleet(nil, units.LatticeConstantFe, units.CutoffShort, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	// Zero-node fleet: every request should go straight to the fallback.
	vets := sampleVETs(t, fc.Tables(), 2, 44)
	if _, err := fc.Evaluate(vets[0]); err != nil {
		t.Fatalf("zero-node fleet with fallback: %v", err)
	}
	if st := fc.Stats(); st.Fallbacks == 0 {
		t.Fatalf("fallback not counted on zero-node fleet: %+v", st)
	}
}

// TestFleetRefusesCorruptVET: a VET that does not pack — species byte 7
// at site 17 — is damaged engine state, not a transport fault. It comes
// back as a *fault.CorruptionError naming the site before anything is
// dialled or written: no retry, failover or local fallback answers it,
// and the healthy nodes stay up.
func TestFleetRefusesCorruptVET(t *testing.T) {
	_, addrs, pot := startFleet(t, 2, 47)
	tb := shortTables()
	var dials atomic.Int64
	opts := quietFleet()
	opts.Fallback = nnp.NewLatticeEvaluator(pot, tb)
	opts.Dialer = func(addr string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", addr)
	}
	fc, err := DialFleet(addrs, tb.A, tb.Rcut, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	dialled := dials.Load()

	vet := sampleVETs(t, tb, 1, 48)[0]
	vet[17] = 7
	_, err = fc.Evaluate(vet)
	var ce *fault.CorruptionError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "site 17 ") {
		t.Fatalf("corrupt VET: %v, want a corruption error naming site 17", err)
	}
	func() {
		defer func() {
			if _, ok := recover().(*fault.CorruptionError); !ok {
				t.Fatal("HopEnergies on a corrupt VET did not panic with a corruption error")
			}
		}()
		fc.HopEnergies(vet)
	}()
	st := fc.Stats()
	if st.Retries+st.Failovers+st.Fallbacks+st.Reconnects != 0 || dials.Load() != dialled {
		t.Fatalf("corrupt VET reached the fleet: %+v, %d dials", st, dials.Load()-dialled)
	}
	for _, addr := range addrs {
		if !st.NodeUp[addr] {
			t.Fatalf("healthy node %s marked down: %+v", addr, st.NodeUp)
		}
	}
}

// TestFleetHitAllocs: a warm fleet hit over loopback — pack, hash, route,
// one eval frame out, one result frame back, client and server side
// together — costs at most 2 allocations and 128 bytes.
func TestFleetHitAllocs(t *testing.T) {
	_, addrs, _ := startFleet(t, 2, 49)
	fc, err := DialFleet(addrs, units.LatticeConstantFe, units.CutoffShort, quietFleet())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	vet := sampleVETs(t, fc.Tables(), 1, 50)[0]
	hit := func() { fc.HopEnergies(vet) }
	hit() // warm: the owner's cache now holds the environment

	const runs = 500
	allocs := testing.AllocsPerRun(runs, hit)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a warm fleet hit: %v allocations, %.0f B", allocs, b)
	if allocs > 2 || b > 128 {
		t.Errorf("a warm fleet hit allocates %v times and %.0f B, want at most 2 and 128 B", allocs, b)
	}
}
