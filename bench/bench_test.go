package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"tensorkmc/internal/input"
)

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n       int
		cap     float64
		tailPct float64
		tail    float64
	}{
		{10000, 99.9, 99.9, 9990}, // exactly 10 beyond p99.9
		{10000, 99, 99, 9900},     // a *_p99 metric never reports above p99
		{1000, 99, 99, 990},       // exactly 10 beyond p99
		{999, 99, 95, 950},        // 9 beyond p99 is too few: fall to p95
		{298, 99, 95, 284},
		{40, 99, 75, 30},
		{39, 99, 50, 20}, // nothing on the ladder has 10 beyond: median only
		{1, 99, 50, 1},
	}
	for _, c := range cases {
		d := summarize(ramp(c.n), c.cap)
		if d.N != c.n || d.TailPct != c.tailPct || d.Tail != c.tail {
			t.Errorf("n=%d cap=%g: got n=%d tail p%g=%g, want p%g=%g", c.n, c.cap, d.N, d.TailPct, d.Tail, c.tailPct, c.tail)
		}
	}
	if d := summarize(ramp(4), 99); d.P50 != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", d.P50)
	}
	if d := summarize(nil, 99); d.N != 0 {
		t.Errorf("empty sample: n=%d", d.N)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g; want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},     // overlaps a: ranks working concurrently
		{Name: "a1", Start: 15, End: 25, Parent: 1},    // grandchild: only a's concern
		{Name: "late", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "a", Start: 70, End: 80, Parent: 0},
	}
	want := []int64{
		100 - (50 + 10 + 10), // union of [10,60], [70,80], [90,100]
		30 - 10,
		30,
		10,
		30,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, i, got[i], want[i])
		}
	}
	byName := selfByName(spans)
	if byName["a"] != 30 {
		t.Errorf("self by name a = %d, want 30", byName["a"])
	}
	// Layer shares add up: self times partition the root's interval
	// exactly when no child overlaps or overruns.
	flat := []span{
		{Name: "root", Start: 0, End: 50, Parent: -1},
		{Name: "x", Start: 5, End: 20, Parent: 0},
		{Name: "y", Start: 20, End: 45, Parent: 0},
		{Name: "z", Start: 22, End: 30, Parent: 2},
	}
	var total int64
	for _, d := range selfTimes(flat) {
		total += d
	}
	if total != 50 {
		t.Errorf("self times sum to %d, want the root's 50", total)
	}
}

func TestMissHitClassification(t *testing.T) {
	spans := []span{
		{Name: spanStep, Start: 0, End: 100, Parent: -1},
		{Name: spanServe, Start: 1, End: 50, Parent: 0}, // backend ran inside: miss
		{Name: spanBackend, Start: 5, End: 45, Parent: 1},
		{Name: spanServe, Start: 60, End: 63, Parent: 0}, // no backend: hit
		{Name: spanServe, Start: 70, End: 95, Parent: 0}, // miss split over two batches
		{Name: spanBackend, Start: 71, End: 80, Parent: 4},
		{Name: spanBackend, Start: 81, End: 90, Parent: 4},
	}
	hit, miss, inside := classify(spans)
	if len(hit) != 1 || hit[0] != 3 {
		t.Errorf("hits = %v, want [3]", hit)
	}
	if len(miss) != 2 || miss[0] != 49 || miss[1] != 25 {
		t.Errorf("misses = %v, want [49 25]", miss)
	}
	if len(inside) != 2 || inside[0] != 40 || inside[1] != 18 {
		t.Errorf("backend time inside misses = %v, want [40 18]", inside)
	}
}

func TestSeedSubstitutionTouchesOnlyTheSeedLine(t *testing.T) {
	dir, err := benchDir()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		orig, err := os.ReadFile(filepath.Join(dir, "decks", wl.deckFile()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := substituteSeed(orig, 987654321)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		before, after := strings.Split(string(orig), "\n"), strings.Split(string(out), "\n")
		if len(before) != len(after) {
			t.Fatalf("%s: line count changed", wl.Name)
		}
		changed := 0
		for i := range before {
			if before[i] == after[i] {
				continue
			}
			changed++
			if f := strings.Fields(after[i]); len(f) != 2 || f[0] != "seed" || f[1] != "987654321" {
				t.Errorf("%s: line %d became %q", wl.Name, i+1, after[i])
			}
		}
		if changed != 1 {
			t.Errorf("%s: %d lines changed, want 1", wl.Name, changed)
		}
	}
	if _, err := substituteSeed([]byte("cells 4 4 4\n# seed 3 in a comment\n"), 1); err == nil {
		t.Error("a deck without a seed line must be refused")
	}
	if _, err := substituteSeed([]byte("seed 1\nseed 2\n"), 1); err == nil {
		t.Error("a deck with two seed lines must be refused")
	}
}

// allowedKeys are the only deck keys the benchmark's decks may use: none
// of the tunables under review (eval_speculate eval_batch eval_workers
// eval_shards eval_f32), so a change that deletes one of those still
// builds and runs this benchmark unchanged.
var allowedKeys = map[string]bool{
	"cells": true, "cu": true, "vacancy": true, "temperature": true, "duration": true,
	"seed": true, "potential": true, "ranks": true, "tstop": true, "eval_cache": true,
	"eval_fleet": true, "checkpoint": true, "checkpoint_every": true, "traj_log": true,
}

func TestDecksParseAndUseOnlyAllowedKeys(t *testing.T) {
	dir, err := benchDir()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "decks", "*.deck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(workloads) {
		t.Errorf("%d deck files for %d workloads", len(files), len(workloads))
	}
	for _, wl := range workloads {
		text, err := os.ReadFile(filepath.Join(dir, "decks", wl.deckFile()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := input.Parse(bytes.NewReader(text)); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
		for _, line := range strings.Split(string(text), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			if f := strings.Fields(line); len(f) > 0 && !allowedKeys[strings.ToLower(f[0])] {
				t.Errorf("%s uses deck key %q, which the benchmark does not allow", wl.Name, f[0])
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	dir, err := benchDir()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(filepath.Dir(dir), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, workloads[i].Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, catalogue %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q breaks the limits", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json must carry setup_s in s, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, catalogue %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmokeRunEmitsEveryMetric runs every workload once at 1/20 of its
// duration, traced, and requires a clean result and that every catalogue
// metric is emitted by at least one workload (and the end-to-end ones by
// all).
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	emitted := map[string]bool{}
	for _, wl := range workloads {
		res, err := runChild(childConfig{Workload: wl.Name, Seed: 1, Reps: 1, Trace: true, Scale: 0.05})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", wl.Name, c.Name, c.Note)
			}
		}
		if res.Failed != 0 || !res.TraceValid {
			t.Errorf("%s: failed=%d trace_valid=%v", wl.Name, res.Failed, res.TraceValid)
		}
		for _, d := range endToEnd {
			if s, ok := res.E2E[d.Name]; !ok || s.Best <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive (%v)", wl.Name, d.Name, s.Best)
			}
		}
		if s, ok := res.E2E[errorShare]; !ok || s.Best != 0 {
			t.Errorf("%s: error_share = %v, want 0", wl.Name, s.Best)
		}
		for name := range res.Layers {
			emitted[name] = true
		}
		var line struct {
			Correct   bool
			Attempted int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal([]byte(driverLine(res, true)), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: driver line correct=%v attempted=%d with %d metrics, want %d", wl.Name, line.Correct, line.Attempted, len(line.Metrics), len(perLayer))
		}
	}
	for _, d := range slices.Concat(perLayer, cleanCounters) {
		if !emitted[d.Name] {
			t.Errorf("per-layer metric %s was emitted by no workload", d.Name)
		}
	}
}
