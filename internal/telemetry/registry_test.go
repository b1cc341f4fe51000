package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketEdges pins the le semantics: an observation equal
// to a bound lands in that bound's bucket (Prometheus cumulative
// buckets are "less than or equal"), and values above every bound land
// in the implicit +Inf bucket.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 4.0, 4.0001, 1e9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 1, 2} // le=1: {0.5, 1.0}; le=2: {1.0001, 2.0}; le=4: {4.0}; +Inf: {4.0001, 1e9}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: count %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 7 {
		t.Errorf("total count %d, want 7", s.Count)
	}
	wantSum := 0.5 + 1.0 + 1.0001 + 2.0 + 4.0 + 4.0001 + 1e9
	if s.Sum != wantSum {
		t.Errorf("sum %v, want %v", s.Sum, wantSum)
	}
}

// TestNilInstrumentsAreNoOps: the whole nil-safety contract that lets
// uninstrumented runs skip every conditional.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var h *Histogram
	h.Observe(1)
	var r *Registry
	if r.Counter("x", "") != nil || r.Histogram("z", "", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.CounterFunc("f", "", func() int64 { return 1 })
	r.GaugeFunc("g", "", func() float64 { return 1 })
	var set *Set
	set.Reg().Counter("a", "").Inc()
	set.Trace().Phase("p").Start().EndMsg("")
	set.Events().Record("t", "msg")
}

// TestRegistryGetOrCreate: asking twice returns the same instrument, so
// independently constructed layers share counters; a kind mismatch is a
// programming error and panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("tkmc_test_total", "help")
	b := r.Counter("tkmc_test_total", "ignored second help")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	l1 := r.Counter("tkmc_test_total", "", "rank", "0")
	l2 := r.Counter("tkmc_test_total", "", "rank", "1")
	if l1 == l2 {
		t.Fatal("different labels must be different series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.GaugeFunc("tkmc_test_total", "", func() float64 { return 0 })
}

// TestRegistryConcurrency hammers creation, mutation and snapshotting
// from many goroutines; run under -race this is the synchronization
// proof for the registry.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("tkmc_conc_total", "").Inc()
				r.Histogram("tkmc_conc_seconds", "", nil).Observe(float64(i) * 1e-6)
				r.Counter("tkmc_conc_labeled_total", "", "g", string(rune('a'+g))).Inc()
				if i%100 == 0 {
					r.Snapshot()
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}(g)
	}
	wg.Wait()
	if v := r.Counter("tkmc_conc_total", "").Value(); v != 8000 {
		t.Fatalf("counter lost increments: %d", v)
	}
	if n := r.Histogram("tkmc_conc_seconds", "", nil).Snapshot().Count; n != 8000 {
		t.Fatalf("histogram lost observations: %d", n)
	}
}

// TestRegistryFirstRegistrationRace is sublattice.newRank's pattern: every
// rank goroutine registers the same series once, keeps the handle and
// counts into it. All eight must hold one instrument — of each stored
// kind — or increments land in instruments the registry does not export.
// The window is the first registration only, so each round starts a fresh
// registry and releases the goroutines together.
func TestRegistryFirstRegistrationRace(t *testing.T) {
	const goroutines, perGoroutine = 8, 100
	for round := 0; round < 200; round++ {
		r := NewRegistry()
		var ctrs [goroutines]*Counter
		var hists [goroutines]*Histogram
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				ctrs[g] = r.Counter(MetricStepTotal, "")
				hists[g] = r.Histogram("tkmc_race_seconds", "", nil)
				for i := 0; i < perGoroutine; i++ {
					ctrs[g].Inc()
					hists[g].Observe(1e-6)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			if ctrs[g] != ctrs[0] || hists[g] != hists[0] {
				t.Fatalf("round %d: goroutine %d holds a different instrument than goroutine 0", round, g)
			}
		}
		const want = goroutines * perGoroutine
		if v := r.Counter(MetricStepTotal, "").Value(); v != want {
			t.Fatalf("round %d: counter exports %d of %d increments", round, v, want)
		}
		if n := r.Histogram("tkmc_race_seconds", "", nil).Snapshot().Count; n != want {
			t.Fatalf("round %d: histogram exports %d of %d observations", round, n, want)
		}
	}
}

// TestWritePrometheusGolden pins the exact exposition text for a small
// deterministic registry: HELP/TYPE headers, label rendering, cumulative
// buckets, _sum/_count and the +Inf literal.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("tkmc_hops_total", "Executed hops.").Add(42)
	r.Counter("tkmc_sends_total", "Messages sent.", "rank", "0").Add(3)
	r.Counter("tkmc_sends_total", "Messages sent.", "rank", "1").Add(4)
	r.GaugeFunc("tkmc_entries", "Resident entries.", func() float64 { return 17.5 })
	h := r.Histogram("tkmc_lat_seconds", "Latencies.", []float64{0.001, 0.1}, "phase", "eval")
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(7)
	r.CounterFunc("tkmc_fn_total", "Function-backed.", func() int64 { return 9 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP tkmc_hops_total Executed hops.
# TYPE tkmc_hops_total counter
tkmc_hops_total 42
# HELP tkmc_sends_total Messages sent.
# TYPE tkmc_sends_total counter
tkmc_sends_total{rank="0"} 3
tkmc_sends_total{rank="1"} 4
# HELP tkmc_entries Resident entries.
# TYPE tkmc_entries gauge
tkmc_entries 17.5
# HELP tkmc_lat_seconds Latencies.
# TYPE tkmc_lat_seconds histogram
tkmc_lat_seconds_bucket{phase="eval",le="0.001"} 1
tkmc_lat_seconds_bucket{phase="eval",le="0.1"} 2
tkmc_lat_seconds_bucket{phase="eval",le="+Inf"} 3
tkmc_lat_seconds_sum{phase="eval"} 7.0505
tkmc_lat_seconds_count{phase="eval"} 3
# HELP tkmc_fn_total Function-backed.
# TYPE tkmc_fn_total counter
tkmc_fn_total 9
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestLabelEscaping: label values with quotes, backslashes and newlines
// must render escaped, not corrupt the exposition.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("tkmc_esc_total", "", "path", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

// TestCounterFuncSingleSource: a function-backed metric and the
// subsystem snapshot it mirrors read the same storage, so they can
// never disagree.
func TestCounterFuncSingleSource(t *testing.T) {
	r := NewRegistry()
	var internal int64
	r.CounterFunc("tkmc_src_total", "", func() int64 { return internal })
	internal = 1234
	snap := r.Snapshot()
	if len(snap.Families) != 1 || snap.Families[0].Series[0].Value != 1234 {
		t.Fatalf("function metric must read live storage: %+v", snap)
	}
	// Re-registration replaces the reader — the contract that lets a
	// rebuilt subsystem (e.g. a supervisor-restored evaluation service)
	// keep its metrics live instead of frozen on the dead instance.
	var fresh int64 = 7
	r.CounterFunc("tkmc_src_total", "", func() int64 { return fresh })
	if v := r.Snapshot().Families[0].Series[0].Value; v != 7 {
		t.Fatalf("re-registered function metric reads %v, want 7", v)
	}
}
