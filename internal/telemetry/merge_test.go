package telemetry

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// buildNodeSnapshot fabricates one origin's registry: a shared family
// every origin exports, a histogram, and one series unique to the
// origin, then snapshots it and labels it by origin.
func buildNodeSnapshot(node string, requests int64, lat []float64) Snapshot {
	reg := NewRegistry()
	c := reg.Counter("tkmc_eval_requests_total", "requests")
	c.Add(requests)
	h := reg.Histogram("tkmc_eval_latency_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range lat {
		h.Observe(v)
	}
	reg.Counter("tkmc_only_"+node, "unique to this node").Inc()
	snap := reg.Snapshot()
	snap.AddLabel("node", node)
	return snap
}

// TestSnapshotUnderConcurrentWriters hammers one registry from many
// goroutines while snapshots are taken concurrently. Under -race this
// is the data-race assertion; the value checks pin the documented
// consistency model — every individual value is atomic, so a snapshot
// never reads a torn counter or a histogram observation count beyond
// what the writers can ever have produced.
func TestSnapshotUnderConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	const writers = 8
	const perWriter = 2000

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := reg.Snapshot()
				for _, f := range s.Families {
					for _, ss := range f.Series {
						if ss.Value < 0 {
							t.Errorf("snapshot read a negative value for %s%s: %g", f.Name, ss.Labels, ss.Value)
							return
						}
						if ss.Histogram != nil && ss.Histogram.Count > writers*perWriter {
							t.Errorf("histogram count %d exceeds the %d observations that can ever exist",
								ss.Histogram.Count, writers*perWriter)
							return
						}
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Same (name, labels) from every writer: get-or-create must
			// hand all of them the one shared instrument.
			c := reg.Counter("concurrent_total", "shared counter")
			h := reg.Histogram("concurrent_hist", "shared histogram", []float64{0.25, 0.5, 0.75})
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i%4) * 0.25)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	s := reg.Snapshot()
	var found bool
	for _, f := range s.Families {
		switch f.Name {
		case "concurrent_total":
			found = true
			if got := f.Series[0].Value; got != writers*perWriter {
				t.Errorf("final counter = %g, want %d", got, writers*perWriter)
			}
		case "concurrent_hist":
			hs := f.Series[0].Histogram
			if hs.Count != writers*perWriter {
				t.Errorf("final histogram count = %d, want %d", hs.Count, writers*perWriter)
			}
			var sum int64
			for _, n := range hs.Counts {
				sum += n
			}
			if sum != hs.Count {
				t.Errorf("bucket counts sum to %d, total says %d", sum, hs.Count)
			}
		}
	}
	if !found {
		t.Fatal("concurrent_total family missing from the final snapshot")
	}
}

// TestMergeShuffledOrderings is the cluster-view determinism contract:
// merging N origin snapshots in any order, then sorting, renders
// byte-identical Prometheus text — and the merged values are the sums
// regardless of order.
func TestMergeShuffledOrderings(t *testing.T) {
	// Fresh node snapshots per render: Merge may splice appended series
	// into the receiver, so sharing one set across orders could alias.
	freshNodes := func() []Snapshot {
		return []Snapshot{
			buildNodeSnapshot("a", 10, []float64{0.005, 0.05}),
			buildNodeSnapshot("b", 20, []float64{0.0005}),
			buildNodeSnapshot("c", 30, nil),
			buildNodeSnapshot("d", 5, []float64{0.5, 0.5, 0.05}),
		}
	}

	render := func(order []int) string {
		nodes := freshNodes()
		// A controller-side series that exists before any node merges in.
		own := NewRegistry()
		own.Counter("tkmc_ctl_submitted_total", "submissions").Add(int64(len(order)))
		cluster := own.Snapshot()
		for _, i := range order {
			if err := cluster.Merge(nodes[i]); err != nil {
				t.Fatalf("merge node %d: %v", i, err)
			}
		}
		cluster.Sort()
		var sb strings.Builder
		if err := cluster.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	ref := render([]int{0, 1, 2, 3})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(4)
		if got := render(order); got != ref {
			t.Fatalf("order %v rendered a different cluster snapshot:\n--- want ---\n%s\n--- got ---\n%s", order, ref, got)
		}
	}

	// Spot-check the content: every node's labelled requests series is
	// present exactly once, and the node-unique families survived.
	for _, node := range []string{"a", "b", "c", "d"} {
		want := `tkmc_eval_requests_total{node="` + node + `"}`
		if n := strings.Count(ref, want); n != 1 {
			t.Errorf("series %s appears %d times, want 1", want, n)
		}
		if !strings.Contains(ref, "tkmc_only_"+node) {
			t.Errorf("node-unique family tkmc_only_%s missing from the cluster view", node)
		}
	}
}

// TestMergeRefusesDuplicateSeries: origins are labelled apart before
// they merge, so a series both snapshots hold under the same labels is
// refused, never summed or listed twice, and so is a family merged in
// under another kind.
func TestMergeRefusesDuplicateSeries(t *testing.T) {
	a := buildNodeSnapshot("x", 7, []float64{0.05})
	if err := a.Merge(buildNodeSnapshot("x", 11, []float64{0.005, 0.05})); err == nil ||
		!strings.Contains(err.Error(), `tkmc_eval_requests_total{node="x"}`) {
		t.Fatalf("merging a duplicate series returned %v, want an error naming it", err)
	}
	gauge := NewRegistry()
	gauge.GaugeFunc("tkmc_eval_requests_total", "requests", func() float64 { return 1 })
	if err := a.Merge(gauge.Snapshot()); err == nil {
		t.Fatal("merging a counter family as a gauge succeeded")
	}
}

// TestMergeIntoSharedFamily: a series merged into a family s already
// holds lands there even when families new to s were appended first.
func TestMergeIntoSharedFamily(t *testing.T) {
	own := NewRegistry()
	own.Counter("tkmc_shared_total", "shared").Inc()
	s := own.Snapshot()
	job := NewRegistry()
	job.Counter("tkmc_job_only_total", "new to s").Inc()
	job.Counter("tkmc_shared_total", "shared").Add(2)
	o := job.Snapshot()
	o.AddLabel("job", "j1")
	if err := s.Merge(o); err != nil {
		t.Fatal(err)
	}
	s.Sort()
	var sb strings.Builder
	s.WritePrometheus(&sb)
	for _, want := range []string{"tkmc_shared_total 1", `tkmc_shared_total{job="j1"} 2`, `tkmc_job_only_total{job="j1"} 1`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("merged snapshot lacks %q:\n%s", want, sb.String())
		}
	}
}

// TestAddLabelForms covers the two label splices: a bare series gains
// {k="v"}, an already-labelled one gains a prepended pair, and label
// values are escaped.
func TestAddLabelForms(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("plain_total", "no labels").Inc()
	reg.Counter("labelled_total", "with labels", "shard", "3").Inc()
	s := reg.Snapshot()
	s.AddLabel("node", `ho"st\1`)
	var sb strings.Builder
	s.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, `plain_total{node="ho\"st\\1"} 1`) {
		t.Errorf("bare series not labelled/escaped:\n%s", out)
	}
	if !strings.Contains(out, `labelled_total{node="ho\"st\\1",shard="3"} 1`) {
		t.Errorf("labelled series not prepended:\n%s", out)
	}
}
