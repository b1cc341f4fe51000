package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tensorkmc/internal/telemetry"
)

// telemetryTestConfig is a small, fast serial configuration with the
// evaluation service enabled (so the cache metrics are live too).
func telemetryTestConfig(dir string, set *telemetry.Set) Config {
	return Config{
		Cells:           [3]int{8, 8, 8},
		CuFraction:      0.05,
		VacancyFraction: 0.002,
		Seed:            41,
		Potential:       EAM,
		EvalCache:       1 << 10,
		CheckpointPath:  filepath.Join(dir, "state.box"),
		Telemetry:       set,
	}
}

// runToCheckpoint runs one simulation to completion and returns the
// final checkpoint file bytes.
func runToCheckpoint(t *testing.T, cfg Config, duration float64) []byte {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(duration, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTelemetryBitIdenticalSerial: the hard contract — telemetry only
// reads the wall clock and bumps atomics, so a serial run's final
// checkpoint is byte-identical with telemetry on or off.
func TestTelemetryBitIdenticalSerial(t *testing.T) {
	cfgOff := telemetryTestConfig(t.TempDir(), nil)
	cfgOn := telemetryTestConfig(t.TempDir(), telemetry.NewSet())
	off := runToCheckpoint(t, cfgOff, 3e-8)
	on := runToCheckpoint(t, cfgOn, 3e-8)
	if !bytes.Equal(off, on) {
		t.Fatalf("serial checkpoints differ with telemetry on vs off (%d vs %d bytes)", len(off), len(on))
	}
}

// TestTelemetryBitIdenticalParallel: same contract for the sublattice
// engine, whose rank hops and exchanges are all instrumented.
func TestTelemetryBitIdenticalParallel(t *testing.T) {
	cfgOff := telemetryTestConfig(t.TempDir(), nil)
	cfgOff.Ranks = [3]int{2, 1, 1}
	cfgOn := telemetryTestConfig(t.TempDir(), telemetry.NewSet())
	cfgOn.Ranks = [3]int{2, 1, 1}
	off := runToCheckpoint(t, cfgOff, 3e-8)
	on := runToCheckpoint(t, cfgOn, 3e-8)
	if !bytes.Equal(off, on) {
		t.Fatalf("parallel checkpoints differ with telemetry on vs off (%d vs %d bytes)", len(off), len(on))
	}
}

// TestSpanTreeCoversRun: the end-to-end accounting check — on a serial
// run the span tree's root covers (nearly all of) the measured wall
// time, and its direct children account for >95% of it. If a new
// subsystem starts burning time outside the instrumented phases, this
// is the test that notices.
func TestSpanTreeCoversRun(t *testing.T) {
	set := telemetry.NewSet()
	cfg := telemetryTestConfig(t.TempDir(), set)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	start := time.Now()
	if _, err := sim.Run(3e-8, nil); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()

	var run *telemetry.SpanNode
	for _, n := range set.Trace().Spans() {
		if n.Name == telemetry.PhaseRun {
			run = &n
			break
		}
	}
	if run == nil {
		t.Fatal("no 'run' root span recorded")
	}
	if run.Seconds < 0.95*wall {
		t.Fatalf("run span %.4fs covers <95%% of %.4fs wall", run.Seconds, wall)
	}
	if cov := childSeconds(*run) / run.Seconds; cov < 0.95 {
		t.Fatalf("run children cover %.1f%% of the run span, want >95%% (tree: %+v)", 100*cov, *run)
	}
	// The serial hot path must be decomposed under run/segment/step.
	var seg *telemetry.SpanNode
	for i := range run.Children {
		if run.Children[i].Name == telemetry.PhaseSegment {
			seg = &run.Children[i]
		}
	}
	if seg == nil || len(seg.Children) == 0 {
		t.Fatalf("segment phase missing or childless: %+v", run)
	}
	if seg.Children[0].Name != telemetry.PhaseStep || seg.Children[0].Count == 0 {
		t.Fatalf("step phase missing under segment: %+v", seg)
	}
}

// TestPhaseChildrenWithinParent: after a traced run and cluster scans
// made outside it, the children of every phase together took no longer
// than the phase itself, so no row of the phase table lists time that
// its parent row does not contain.
func TestPhaseChildrenWithinParent(t *testing.T) {
	set := telemetry.NewSet()
	cfg := telemetryTestConfig(t.TempDir(), set)
	cfg.EvalCache = 0
	cfg.Trace = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(1e-8, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sim.Analyze()
	}
	var check func(n telemetry.SpanNode)
	check = func(n telemetry.SpanNode) {
		if c := childSeconds(n); c > n.Seconds {
			t.Errorf("phase %s: children took %.6fs, the phase %.6fs", n.Path, c, n.Seconds)
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	for _, r := range set.Trace().Spans() {
		check(r)
	}
}

// TestStepSpansDisjoint: no span under run/segment/step is timed twice —
// full VET fills under encode, model calls under eval, the hop and its
// VET rebuild under apply — so the step's children sum to at most the
// step's own time, and encode (the first fills at least) is among them.
func TestStepSpansDisjoint(t *testing.T) {
	set := telemetry.NewSet()
	runToCheckpoint(t, telemetryTestConfig(t.TempDir(), set), 3e-8)
	node := &telemetry.SpanNode{Children: set.Trace().Spans()}
	for _, name := range []string{telemetry.PhaseRun, telemetry.PhaseSegment, telemetry.PhaseStep} {
		var next *telemetry.SpanNode
		for i := range node.Children {
			if node.Children[i].Name == name {
				next = &node.Children[i]
			}
		}
		if next == nil {
			t.Fatalf("no %s span under %q", name, node.Path)
		}
		node = next
	}
	if node.Count == 0 {
		t.Fatal("no step spans recorded")
	}
	if childSeconds(*node) > node.Seconds {
		t.Fatalf("step children sum to %.6fs of the step's %.6fs: a span is timed twice (%+v)", childSeconds(*node), node.Seconds, *node)
	}
	encode := false
	for _, c := range node.Children {
		encode = encode || (c.Name == telemetry.PhaseEncode && c.Count > 0)
	}
	if !encode {
		t.Fatalf("no encode spans under step: %+v", *node)
	}
}

// TestMetricsAgreeWithStats: the function-backed registry metrics and
// the evaluation service's own Stats() read the same storage, so after
// the run quiesces they must agree exactly.
func TestMetricsAgreeWithStats(t *testing.T) {
	set := telemetry.NewSet()
	cfg := telemetryTestConfig(t.TempDir(), set)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(3e-8, nil); err != nil {
		t.Fatal(err)
	}
	st, ok := sim.EvalStats()
	if !ok {
		t.Fatal("evaluation service not enabled")
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("run exercised no cache traffic; test is vacuous")
	}

	snap := set.Reg().Snapshot()
	metric := func(name string) float64 {
		for _, f := range snap.Families {
			if f.Name == name {
				var total float64
				for _, s := range f.Series {
					total += s.Value
				}
				return total
			}
		}
		t.Fatalf("metric family %s not registered", name)
		return 0
	}
	checks := []struct {
		name string
		want int64
	}{
		{telemetry.MetricCacheHits, st.Hits},
		{telemetry.MetricCacheMisses, st.Misses},
		{telemetry.MetricCacheEvictions, st.Evictions},
		{telemetry.MetricCacheCollisions, st.Collisions},
		{telemetry.MetricCacheEntries, int64(st.Entries)},
		{telemetry.MetricEvalBatches, st.Batches},
		{telemetry.MetricEvalDeduped, st.Deduped},
	}
	for _, c := range checks {
		if got := metric(c.name); got != float64(c.want) {
			t.Errorf("%s = %v, but Stats() says %d", c.name, got, c.want)
		}
	}

	// The acceptance families must all be present in the exposition,
	// even those still at zero.
	var sb strings.Builder
	if err := set.Reg().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		telemetry.MetricStepTotal,
		telemetry.MetricPhaseSeconds,
		telemetry.MetricCacheHits,
	} {
		if !strings.Contains(sb.String(), "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from /metrics exposition", fam)
		}
	}
}

// childSeconds sums the direct children's totals of n.
func childSeconds(n telemetry.SpanNode) float64 {
	var s float64
	for _, c := range n.Children {
		s += c.Seconds
	}
	return s
}
