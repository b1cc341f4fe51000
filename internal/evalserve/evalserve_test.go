package evalserve

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// sampleVETs collects distinct vacancy environments from a dilute Fe–Cu
// box — the production workload shape.
func sampleVETs(t testing.TB, tb *encoding.Tables, n int, seed uint64) []encoding.VET {
	t.Helper()
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.05, 0.0, rng.New(seed))
	r := rng.New(seed + 1)
	out := make([]encoding.VET, 0, n)
	for len(out) < n {
		c := lattice.Vec{X: 2 * int(r.Uint64()%14), Y: 2 * int(r.Uint64()%14), Z: 2 * int(r.Uint64()%14)}
		old := box.Get(c)
		box.Set(c, lattice.Vacancy)
		vet := tb.NewVET()
		tb.FillVET(vet, c, box.Get)
		box.Set(c, old)
		out = append(out, vet)
	}
	return out
}

// shortTables are the short-cutoff tables every test server and client
// shares, as the processes of one run share theirs.
func shortTables() *encoding.Tables {
	return encoding.New(units.LatticeConstantFe, units.CutoffShort)
}

func smallPotential(seed uint64) (*nnp.Potential, *encoding.Tables) {
	tb := shortTables()
	desc := feature.Standard(units.CutoffShort)
	pot := nnp.NewPotential(desc, []int{desc.Dim(), 16, 8, 1}, rng.New(seed))
	return pot, tb
}

// waitFor polls cond for up to two seconds — for server-side state
// (a counted miss, a joined flight) that no caller is told about.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// gatedBackend wraps a backend so a test can hold callers inside an
// evaluation: entered reports each EvaluateBatch call's width, closing
// release lets them all finish, and peak is the most calls that were
// ever inside at once.
type gatedBackend struct {
	inner   Backend
	entered chan int
	release chan struct{}

	mu           sync.Mutex
	inside, peak int
}

func newGatedBackend(inner Backend) *gatedBackend {
	return &gatedBackend{
		inner: inner,
		// Never blocks a caller: no test here makes more than 16 calls.
		entered: make(chan int, 16),
		release: make(chan struct{}),
	}
}

func (g *gatedBackend) Tables() *encoding.Tables { return g.inner.Tables() }

func (g *gatedBackend) EvaluateBatch(vets []encoding.VET) []Result {
	g.mu.Lock()
	g.inside++
	g.peak = max(g.peak, g.inside)
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.inside--
		g.mu.Unlock()
	}()
	g.entered <- len(vets)
	<-g.release
	return g.inner.EvaluateBatch(vets)
}

func (g *gatedBackend) peakInside() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// TestFusionBackendBitIdentical: the fused wide-matrix evaluation must be
// bit-identical to one-system-at-a-time nnp evaluation, for every batch
// width — the foundation of the cached/uncached trajectory contract.
func TestFusionBackendBitIdentical(t *testing.T) {
	pot, tb := smallPotential(1)
	direct := nnp.NewLatticeEvaluator(pot, tb)
	fb := NewFusionBackend(pot, tb, F64)
	vets := sampleVETs(t, tb, 17, 2)

	for _, width := range []int{1, 3, 17} {
		for lo := 0; lo < len(vets); lo += width {
			hi := lo + width
			if hi > len(vets) {
				hi = len(vets)
			}
			got := fb.EvaluateBatch(vets[lo:hi])
			for i, vet := range vets[lo:hi] {
				wi, wf, wv := direct.HopEnergies(vet)
				if got[i].Initial != wi || got[i].Final != wf || got[i].Valid != wv {
					t.Fatalf("width %d system %d: fused (%v, %v) != direct (%v, %v)",
						width, lo+i, got[i].Initial, got[i].Final, wi, wf)
				}
			}
		}
	}
	// Concurrent callers (the server's evaluation slots) share the scratch
	// pool; every call must still see the direct evaluator's bits.
	want := fb.EvaluateBatch(vets)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got := fb.EvaluateBatch(vets[c:])
			for i := range got {
				if got[i] != want[c+i] {
					t.Errorf("concurrent caller %d: system %d diverged", c, c+i)
				}
			}
		}(c)
	}
	wg.Wait()

	st := fb.Stats()
	if st.Systems == 0 || st.Rows == 0 {
		t.Fatalf("fusion stats not accumulated: %+v", st)
	}
	// One vacancy per environment, eight open directions: every system
	// forwards the same rows, fewer than nine full region passes.
	perSystem := int64(tb.NRegion - 1 + 8*(len(tb.HopSites[0])+1))
	if st.Rows != st.Systems*perSystem || perSystem >= int64(9*(tb.NRegion-1)) {
		t.Fatalf("%d rows for %d systems, want %d each (nine passes: %d)", st.Rows, st.Systems, perSystem, 9*(tb.NRegion-1))
	}
}

// TestFusionBackendCorruptionReachesCaller: the kernel's tripwire fires
// on the caller's goroutine as a *fault.CorruptionError, which the server
// turns into its callers' error — not a crashed process.
func TestFusionBackendCorruptionReachesCaller(t *testing.T) {
	pot, tb := smallPotential(15)
	pot.Nets[lattice.Fe].Layers[0].B[0] = math.NaN()
	vets := sampleVETs(t, tb, 6, 16)
	fb := NewFusionBackend(pot, tb, F64)
	func() {
		defer func() {
			if _, ok := recover().(*fault.CorruptionError); !ok {
				t.Error("EvaluateBatch over a NaN head did not panic with *fault.CorruptionError")
			}
		}()
		fb.EvaluateBatch(vets)
	}()
	srv := New(fb, Options{Capacity: 16})
	var ce *fault.CorruptionError
	if _, err := srv.Evaluate(vets[0]); !errors.As(err, &ce) {
		t.Errorf("served evaluation returned %v, want a corruption error", err)
	}
	srv.Close()
}

// TestFusionBackendNextToVacancy is the regression test for the direction
// shift: with a vacancy on a 1NN site, that hop direction is closed, and
// the fused backend used to number only the open directions — so every
// direction after the closed one landed one slot early in Final/Valid.
// Environments: a vacancy at (4,4,4) with a second one on each of the
// eight 1NN sites in turn ((5,5,3) among them), a 2NN control that closes
// nothing, and a trivacancy that closes two directions. f64 must equal
// the direct evaluator bit for bit, Valid included, alone and batched.
func TestFusionBackendNextToVacancy(t *testing.T) {
	pot, tb := smallPotential(1)
	direct := nnp.NewLatticeEvaluator(pot, tb)
	box := lattice.NewBox(14, 14, 14, units.LatticeConstantFe)
	lattice.FillRandomAlloy(box, 0.05, 0.0, rng.New(9))
	centre := lattice.Vec{X: 4, Y: 4, Z: 4}

	var vets []encoding.VET
	var closed [][]int
	env := func(closedDirs []int, others ...lattice.Vec) {
		saved := box.Clone()
		box.Set(centre, lattice.Vacancy)
		for _, v := range others {
			box.Set(v, lattice.Vacancy)
		}
		vet := tb.NewVET()
		tb.FillVET(vet, centre, box.Get)
		vets = append(vets, vet)
		closed = append(closed, closedDirs)
		copy(box.Types(), saved.Types())
	}
	for k, nn := range lattice.NN1 {
		env([]int{k}, centre.Add(nn))
	}
	env(nil, centre.Add(lattice.Vec{X: 2}))
	env([]int{1, 6}, centre.Add(lattice.NN1[1]), centre.Add(lattice.NN1[6]))

	f64 := NewFusionBackend(pot, tb, F64)
	batched := f64.EvaluateBatch(vets)
	for i, vet := range vets {
		wi, wf, wv := direct.HopEnergies(vet)
		for k := 0; k < 8; k++ {
			isClosed := false
			for _, c := range closed[i] {
				isClosed = isClosed || c == k
			}
			if wv[k] == isClosed {
				t.Fatalf("env %d: direct evaluator has Valid[%d] = %v with closed directions %v", i, k, wv[k], closed[i])
			}
		}
		alone := f64.EvaluateBatch(vets[i : i+1])[0]
		for name, got := range map[string]Result{"alone": alone, "batched": batched[i]} {
			if got.Initial != wi || got.Final != wf || got.Valid != wv {
				t.Errorf("env %d (closed %v) %s: fused f64 (%v, %v, %v) != direct (%v, %v, %v)",
					i, closed[i], name, got.Initial, got.Final, got.Valid, wi, wf, wv)
			}
		}
	}
}

// TestServerMatchesDirectModel: the full cache-then-evaluate pipeline returns
// bit-identical energies to the wrapped model, for both backends.
func TestServerMatchesDirectModel(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	params := eam.Default()
	params.RCut = units.CutoffShort
	params.RIn = 4.6
	pot := eam.New(params)
	factory := func() kmc.Model { return eam.NewRegionEvaluator(pot, tb) }

	srv := New(NewModelBackend(factory, 2), Options{Capacity: 64})
	defer srv.Close()
	direct := factory()
	vets := sampleVETs(t, tb, 12, 5)

	// Two passes: the second must be all hits, still bit-identical.
	for pass := 0; pass < 2; pass++ {
		for i, vet := range vets {
			gi, gf, gv := srv.HopEnergies(vet)
			wi, wf, wv := direct.HopEnergies(vet)
			if gi != wi || gf != wf || gv != wv {
				t.Fatalf("pass %d system %d: served (%v, %v) != direct (%v, %v)", pass, i, gi, gf, wi, wf)
			}
		}
	}
	st := srv.Stats()
	if st.Hits == 0 {
		t.Fatalf("second pass produced no cache hits: %+v", st)
	}
	if st.Misses == 0 || st.Batches == 0 {
		t.Fatalf("first pass produced no evaluations: %+v", st)
	}
	if len(st.Shards) != cacheShards {
		t.Fatalf("stats report %d shards, want %d", len(st.Shards), cacheShards)
	}
}

// TestServerBoundsConcurrency hammers one server from many goroutines
// sharing a small set of environments: every result must equal the direct
// evaluation, duplicates must coalesce onto one flight, and never more
// than Options.Workers calls may be inside the backend at once — pinned
// by holding the first two evaluations until every client has missed.
func TestServerBoundsConcurrency(t *testing.T) {
	pot, tb := smallPotential(6)
	gate := newGatedBackend(NewFusionBackend(pot, tb, F64))
	srv := New(gate, Options{Capacity: 256, Workers: 2})
	defer srv.Close()
	direct := nnp.NewLatticeEvaluator(pot, tb)
	vets := sampleVETs(t, tb, 6, 7)
	want := make([]Result, len(vets))
	for i, vet := range vets {
		want[i].Initial, want[i].Final, want[i].Valid = direct.HopEnergies(vet)
	}

	const clients = 8
	const rounds = 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(vets)
				gi, gf, gv := srv.HopEnergies(vets[i])
				if gi != want[i].Initial || gf != want[i].Final || gv != want[i].Valid {
					t.Error("served energies diverged from direct evaluation")
					return
				}
			}
		}(c)
	}
	// Round 0 asks for every environment, two of them twice: two owners
	// get the slots, four wait for one, two join a flight.
	<-gate.entered
	<-gate.entered
	waitFor(t, "every client to miss and the duplicates to join", func() bool {
		st := srv.Stats()
		return st.Misses == clients && st.Deduped == clients-int64(len(vets))
	})
	if n := len(gate.entered); n != 0 {
		t.Fatalf("%d more calls entered the backend while both slots were held", n)
	}
	close(gate.release)
	wg.Wait()

	st := srv.Stats()
	if got := st.Hits + st.Misses; got != clients*rounds {
		t.Fatalf("lookup count %d, want %d", got, clients*rounds)
	}
	if peak := gate.peakInside(); peak != 2 {
		t.Fatalf("%d calls inside the backend at once, want exactly Workers = 2", peak)
	}
	// Only len(vets) distinct environments exist, so at most that many
	// evaluations were necessary beyond coalesced duplicates.
	if st.Batches > int64(len(vets)) {
		t.Fatalf("%d evaluations for %d distinct environments", st.Batches, len(vets))
	}
}

// TestServerBackpressureBounded: with one slot and its evaluation held,
// further distinct misses block outside the backend, and all complete
// once it is released.
func TestServerBackpressureBounded(t *testing.T) {
	pot, tb := smallPotential(8)
	gate := newGatedBackend(NewFusionBackend(pot, tb, F64))
	srv := New(gate, Options{Capacity: 1 << 12, Workers: 1})
	defer srv.Close()
	vets := sampleVETs(t, tb, 12, 9)

	var wg sync.WaitGroup
	for _, vet := range vets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Evaluate(vet); err != nil {
				t.Error(err)
			}
		}()
	}
	<-gate.entered
	waitFor(t, "every caller to miss", func() bool { return srv.Stats().Misses == int64(len(vets)) })
	if n := len(gate.entered); n != 0 {
		t.Fatalf("%d more calls entered the backend while the only slot was held", n)
	}
	close(gate.release)
	wg.Wait()
	if peak := gate.peakInside(); peak != 1 {
		t.Fatalf("%d calls inside the backend at once, want 1", peak)
	}
	if st := srv.Stats(); st.Batches != int64(len(vets)) {
		t.Fatalf("%d evaluations for %d distinct environments", st.Batches, len(vets))
	}
}

// TestServerGracefulDrain: Close must wait for everything already
// accepted — the evaluation a caller is inside, a caller joined to that
// flight, and the callers waiting for the slot — and later submissions
// must fail cleanly rather than hang.
func TestServerGracefulDrain(t *testing.T) {
	pot, tb := smallPotential(10)
	gate := newGatedBackend(NewFusionBackend(pot, tb, F64))
	srv := New(gate, Options{Workers: 1})
	vets := sampleVETs(t, tb, 8, 11)

	var wg sync.WaitGroup
	var failed atomic.Int64
	submit := func(vet encoding.VET) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Evaluate(vet); err != nil {
				failed.Add(1)
			}
		}()
	}
	submit(vets[0])
	<-gate.entered  // the only slot is now held inside vets[0]
	submit(vets[0]) // joins that flight
	for _, vet := range vets[1:] {
		submit(vet) // waits for the slot
	}
	waitFor(t, "a joined caller and the rest missing", func() bool {
		st := srv.Stats()
		return st.Deduped == 1 && st.Misses == int64(len(vets))+1
	})

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	waitFor(t, "Close to stop admissions", srv.closed.Load)
	select {
	case <-closed:
		t.Fatal("Close returned while an evaluation was still held")
	default:
	}
	close(gate.release)
	<-closed
	wg.Wait()
	srv.Close() // idempotent

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d pre-close submissions failed", n)
	}
	if _, err := srv.Evaluate(vets[0]); err == nil || err.Error() != "evalserve: server closed" {
		t.Fatalf("Evaluate after Close returned %v, want server closed", err)
	}
}

// panickyBackend panics with a non-corruption value once — the shape of a
// fleet-backed model whose transport budget ran out — then works.
type panickyBackend struct {
	*gatedBackend
	tripped atomic.Bool
}

func (p *panickyBackend) EvaluateBatch(vets []encoding.VET) []Result {
	if p.tripped.CompareAndSwap(false, true) {
		p.entered <- len(vets)
		<-p.release
		panic(&fault.TransportError{Op: "eval", Addr: "test", Err: errors.New("budget exhausted")})
	}
	return p.inner.EvaluateBatch(vets)
}

// TestServerBackendPanicReleasesFlight: a backend panic that is not a
// corruption passes through on the owner's goroutine (where the engine
// layers recover it), but must not strand the flight's joiners, its slot
// or Close; a retry of the same environment evaluates afresh.
func TestServerBackendPanicReleasesFlight(t *testing.T) {
	pot, tb := smallPotential(17)
	be := &panickyBackend{gatedBackend: newGatedBackend(NewFusionBackend(pot, tb, F64))}
	srv := New(be, Options{Workers: 1})
	vet := sampleVETs(t, tb, 1, 18)[0]

	owner := make(chan any, 1)
	go func() {
		defer func() { owner <- recover() }()
		srv.HopEnergies(vet)
	}()
	<-be.entered
	joiner := make(chan error, 1)
	go func() {
		_, err := srv.Evaluate(vet)
		joiner <- err
	}()
	waitFor(t, "the joiner", func() bool { return srv.Stats().Deduped == 1 })
	close(be.release)
	if _, ok := (<-owner).(*fault.TransportError); !ok {
		t.Error("the backend's panic did not reach the owner unchanged")
	}
	if err := <-joiner; err != errAbandoned {
		t.Errorf("joiner got %v, want errAbandoned", err)
	}
	if _, err := srv.Evaluate(vet); err != nil {
		t.Errorf("retry after the panic: %v", err)
	}
	srv.Close()
}

// packKey returns the VET's packed cache key, failing the test on a
// refusal.
func packKey(t testing.TB, tb *encoding.Tables, vet encoding.VET) []byte {
	t.Helper()
	key, err := tb.PackEnv(nil, vet)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestCacheEvictionAndCollision exercises the LRU bound and the
// compare-on-hit veto directly.
func TestCacheEvictionAndCollision(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	c := NewCache(4, 1)
	vets := sampleVETs(t, tb, 6, 12)

	for i, vet := range vets {
		c.Put(tb.Fingerprint(vet), packKey(t, tb, vet), Result{Initial: float64(i)})
	}
	stats := c.Stats()[0]
	if stats.Entries > 4 {
		t.Fatalf("cache holds %d entries, cap 4", stats.Entries)
	}
	if stats.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", stats.Evictions)
	}
	// Oldest two must be gone, newest resident.
	if _, ok := c.Get(tb.Fingerprint(vets[0]), packKey(t, tb, vets[0])); ok {
		t.Fatal("evicted entry still resident")
	}
	hash := tb.Fingerprint(vets[5])
	if res, ok := c.Get(hash, packKey(t, tb, vets[5])); !ok || res.Initial != 5 {
		t.Fatal("recent entry lost or wrong")
	}

	// Forced collision: look up a different environment under vets[5]'s
	// hash — the full compare must veto the hit and count the collision.
	if _, ok := c.Get(hash, packKey(t, tb, vets[4])); ok {
		t.Fatal("collision accepted: compare-on-hit failed")
	}
	if got := c.Stats()[0].Collisions; got == 0 {
		t.Fatal("collision not counted")
	}

	// The same under an environment differing from vets[5] only at the
	// last CET index, which the packed key holds in its last byte: vetoed,
	// and once stored, both coexist under the one hash with their own
	// results.
	last := append(encoding.VET(nil), vets[5]...)
	last[tb.NAll-1] = (last[tb.NAll-1] + 1) % 3
	before := c.Stats()[0].Collisions
	if _, ok := c.Get(hash, packKey(t, tb, last)); ok {
		t.Fatal("collision at the last CET index accepted")
	}
	if got := c.Stats()[0].Collisions; got != before+1 {
		t.Fatalf("collisions = %d, want %d", got, before+1)
	}
	c.Put(hash, packKey(t, tb, last), Result{Initial: 50})
	if res, ok := c.Get(hash, packKey(t, tb, last)); !ok || res.Initial != 50 {
		t.Fatal("entry differing at the last CET index lost or wrong")
	}
	if res, ok := c.Get(hash, packKey(t, tb, vets[5])); !ok || res.Initial != 5 {
		t.Fatal("entry sharing its hash with another lost or wrong")
	}
}

// TestCacheBytesPerEntry: a cached 6.5 Å system costs at most 800 B of
// heap — its 296-byte packed key plus the entry, list and map overhead —
// measured over 4,096 distinct environments after a collection.
func TestCacheBytesPerEntry(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	const n = 4096
	vet := sampleVETs(t, tb, 1, 30)[0]
	c := NewCache(1<<13, 8)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		// Sites 1..8 spell i in base 3: 3⁸ = 6,561 distinct environments.
		for site, d := 1, i; site <= 8; site, d = site+1, d/3 {
			vet[site] = lattice.Species(d % 3)
		}
		c.Put(tb.Fingerprint(vet), packKey(t, tb, vet), Result{Initial: float64(i)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	var entries int
	for _, st := range c.Stats() {
		entries += st.Entries
	}
	if entries != n {
		t.Fatalf("cache holds %d entries, want %d", entries, n)
	}
	perEntry := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.0f B of heap per cached 6.5 Å system", perEntry)
	if perEntry > 800 {
		t.Fatalf("%.0f B of heap per cached system, want at most 800", perEntry)
	}
	runtime.KeepAlive(c)
}

// TestModelBackendMatchesNNP: the generic pool backend serves NNP too,
// bit-identically.
func TestModelBackendMatchesNNP(t *testing.T) {
	pot, tb := smallPotential(13)
	mb := NewModelBackend(func() kmc.Model { return nnp.NewLatticeEvaluator(pot, tb) }, 2)
	direct := nnp.NewLatticeEvaluator(pot, tb)
	vets := sampleVETs(t, tb, 5, 14)
	got := mb.EvaluateBatch(vets)
	for i, vet := range vets {
		wi, wf, wv := direct.HopEnergies(vet)
		if got[i].Initial != wi || got[i].Final != wf || got[i].Valid != wv {
			t.Fatalf("system %d: pooled (%v) != direct (%v)", i, got[i].Initial, wi)
		}
	}
}
