package input

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/lattice"
)

const sampleDeck = `
# Fig. 8 conditions
cells        100 100 100
lattice      2.87
cu           0.0134
vacancy      0.000008   # 8e-4 at.%
temperature  573
cutoff       6.5
duration     1e-3
seed         42
potential    eam
ranks        2 2 1
tstop        2e-8
snapshots    10
`

func TestParseSample(t *testing.T) {
	d, err := Parse(strings.NewReader(sampleDeck))
	if err != nil {
		t.Fatal(err)
	}
	c := d.Config
	if c.Cells != [3]int{100, 100, 100} || c.Ranks != [3]int{2, 2, 1} {
		t.Fatalf("geometry wrong: %+v", c)
	}
	if c.LatticeConstant != 2.87 || c.CuFraction != 0.0134 || c.VacancyFraction != 8e-6 {
		t.Fatalf("composition wrong: %+v", c)
	}
	if c.Temperature != 573 || c.Cutoff != 6.5 || c.TStop != 2e-8 || c.Seed != 42 {
		t.Fatalf("physics wrong: %+v", c)
	}
	if d.Duration != 1e-3 || d.Snapshots != 10 {
		t.Fatalf("run control wrong: %+v", d)
	}
	if c.Potential != core.EAM {
		t.Fatal("potential wrong")
	}
	cfg, err := d.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Net != nil {
		t.Fatal("EAM deck should not load a net")
	}
}

func TestParseMinimal(t *testing.T) {
	d, err := Parse(strings.NewReader("cells 4 4 4\nduration 1e-8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.Cells != [3]int{4, 4, 4} {
		t.Fatal("cells wrong")
	}
}

func TestParseErrors(t *testing.T) {
	// want is a word the message must hold: the key at fault.
	cases := map[string]struct{ deck, want string }{
		"unknown key":      {"cells 4 4 4\nduration 1\nbogus 1\n", "bogus"},
		"missing cells":    {"duration 1\n", "cells"},
		"missing duration": {"cells 4 4 4\n", "duration"},
		"bad cells":        {"cells 4 x 4\nduration 1\n", "cells"},
		"short cells":      {"cells 4 4\nduration 1\n", "cells"},
		"bad ranks":        {"cells 4 4 4\nduration 1\nranks 2 1 y\n", "ranks"},
		"zero ranks":       {"cells 4 4 4\nduration 1\nranks 0 2 2\n", "ranks"},
		"neg ranks":        {"cells 4 4 4\nduration 1\nranks -1 -1 1\n", "ranks"},
		"bad float":        {"cells 4 4 4\nduration abc\n", "duration"},
		"two floats":       {"cells 4 4 4\nduration 1\ncu 0.1 0.2\n", "cu"},
		"bad tstop":        {"cells 4 4 4\nduration 1\ntstop NaN\n", "tstop"},
		"bad interval":     {"cells 4 4 4\nduration 1\ncheckpoint_every soon\n", "checkpoint_every"},
		"bad timeout":      {"cells 4 4 4\nduration 1\nexchange_timeout x\n", "exchange_timeout"},
		"bad seed":         {"cells 4 4 4\nduration 1\nseed -3\n", "seed"},
		"bad potential":    {"cells 4 4 4\nduration 1\npotential lda\n", "potential"},
		"nnp no file":      {"cells 4 4 4\nduration 1\npotential nnp\n", "nnp"},
		"eam with file":    {"cells 4 4 4\nduration 1\npotential eam fecu.pot\n", "eam"},
		"bondcount":        {"cells 4 4 4\nduration 1\npotential bondcount\n", "bondcount"},
		"neg snapshots":    {"cells 4 4 4\nduration 1\nsnapshots -1\n", "snapshots"},
		"zero lattice":     {"cells 4 4 4\nduration 1\nlattice 0\n", "lattice"},
		"zero temperature": {"cells 4 4 4\nduration 1\ntemperature 0\n", "temperature"},
		"zero cutoff":      {"cells 4 4 4\nduration 1\ncutoff 0\n", "cutoff"},
		"zero tstop":       {"cells 4 4 4\nduration 1\ntstop 0\n", "tstop"},
		"neg temperature":  {"cells 4 4 4\nduration 1\ntemperature -5\n", "temperature"},
		"neg lattice":      {"cells 4 4 4\nduration 1\nlattice -2.87\n", "lattice"},
		"zero timeout":     {"cells 4 4 4\nduration 1\nexchange_timeout 0\n", "exchange_timeout"},
		"sub-ns timeout":   {"cells 4 4 4\nduration 1\nexchange_timeout 1e-10\n", "exchange_timeout"},
		"huge timeout":     {"cells 4 4 4\nduration 1\nexchange_timeout 1e10\n", "exchange_timeout"},
		"overflow timeout": {"cells 4 4 4\nduration 1\nexchange_timeout 9.3e9\n", "exchange_timeout"},
		"sub-ns eval":      {"cells 4 4 4\nduration 1\neval_timeout 1e-10\n", "eval_timeout"},
		"huge eval":        {"cells 4 4 4\nduration 1\neval_timeout 1e10\n", "eval_timeout"},
	}
	for name, tc := range cases {
		_, err := Parse(strings.NewReader(tc.deck))
		if err == nil {
			t.Errorf("%s: expected error", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", name, err, tc.want)
		}
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	deck := "# full line comment\n\n   \ncells 2 2 2 # trailing\nduration 1\n"
	if _, err := Parse(strings.NewReader(deck)); err != nil {
		t.Fatal(err)
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "input")
	if err := os.WriteFile(path, []byte(sampleDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.Seed != 42 {
		t.Fatal("file parse wrong")
	}
	if _, err := ParseFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestFinishMissingPotentialFile(t *testing.T) {
	d, err := Parse(strings.NewReader("cells 4 4 4\nduration 1\npotential nnp /nonexistent.pot\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Finish(); err == nil {
		t.Fatal("expected error loading missing potential")
	}
}

func TestDumpCheckpointRestartKeys(t *testing.T) {
	deck := `
cells 4 4 4
duration 1
dump solute
checkpoint state.box
`
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if d.DumpFile != "solute" || d.CheckpointFile != "state.box" {
		t.Fatalf("dump/checkpoint not parsed: %+v", d)
	}
	// Restart replaces the cells requirement.
	d2, err := Parse(strings.NewReader("restart prev.box\nduration 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d2.RestartFile != "prev.box" {
		t.Fatal("restart not parsed")
	}
	// Malformed variants.
	for _, bad := range []string{
		"cells 4 4 4\nduration 1\ndump\n",
		"cells 4 4 4\nduration 1\ncheckpoint\n",
		"cells 4 4 4\nduration 1\nrestart a b\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted malformed deck %q", bad)
		}
	}
}

func TestRestartFinishLoadsBox(t *testing.T) {
	dir := t.TempDir()
	box := lattice.NewBox(4, 4, 4, 2.87)
	box.Set(lattice.Vec{X: 1, Y: 1, Z: 1}, lattice.Cu)
	path := filepath.Join(dir, "prev.box")
	if err := fault.WriteFileAtomic(path, false, box.Save); err != nil {
		t.Fatal(err)
	}
	d, err := Parse(strings.NewReader("restart " + path + "\nduration 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := d.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.InitialBox == nil || !cfg.InitialBox.Equal(box) {
		t.Fatal("Finish did not load the restart box")
	}
}

func TestCheckpointEveryKey(t *testing.T) {
	d, err := Parse(strings.NewReader("cells 4 4 4\nduration 1\ncheckpoint s.ck\ncheckpoint_every 1e-4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.CheckpointEvery != 1e-4 {
		t.Fatalf("CheckpointEvery = %v", d.CheckpointEvery)
	}
	cfg, err := d.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CheckpointPath != "s.ck" || cfg.CheckpointEvery != 1e-4 {
		t.Fatalf("checkpoint config not forwarded: %+v", cfg)
	}
	// The interval is meaningless without a checkpoint path, and must
	// be a positive duration.
	for _, bad := range []string{
		"cells 4 4 4\nduration 1\ncheckpoint_every 1e-4\n",
		"cells 4 4 4\nduration 1\ncheckpoint s.ck\ncheckpoint_every 0\n",
		"cells 4 4 4\nduration 1\ncheckpoint s.ck\ncheckpoint_every -1\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted bad deck %q", bad)
		}
	}
}

// TestRestartFinishFullState: a TKMCBOX2 restart file carries the clock
// and RNG state through to the config.
func TestRestartFinishFullState(t *testing.T) {
	dir := t.TempDir()
	box := lattice.NewBox(4, 4, 4, 2.87)
	box.Set(lattice.Vec{X: 1, Y: 1, Z: 1}, lattice.Vacancy)
	ck := &core.Checkpoint{Box: box, Time: 3e-7, Hops: 99, HasRNG: true, RNG: [4]uint64{1, 2, 3, 4}}
	path := filepath.Join(dir, "prev.ck")
	if err := ck.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := Parse(strings.NewReader("restart " + path + "\nduration 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := d.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Restart == nil || cfg.Restart.Time != 3e-7 || cfg.Restart.Hops != 99 || !cfg.Restart.HasRNG {
		t.Fatalf("full restart state not loaded: %+v", cfg.Restart)
	}
	if cfg.InitialBox == nil || !cfg.InitialBox.Equal(box) {
		t.Fatal("restart box not loaded")
	}
}

func TestEvalServiceKeys(t *testing.T) {
	d, err := Parse(strings.NewReader("cells 4 4 4\nduration 1e-8\neval_cache 4096\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.EvalCache != 4096 {
		t.Fatalf("eval_cache misparsed: %+v", d.Config)
	}

	// Each bad deck's error must name the offending key.
	for name, bad := range map[string]struct{ deck, want string }{
		"neg cache":       {"cells 4 4 4\nduration 1\neval_cache -1\n", "line 3"},
		"no value":        {"cells 4 4 4\nduration 1\neval_cache\n", "line 3"},
		"deleted key":     {"cells 4 4 4\nduration 1\neval_cache 64\neval_speculate 3\n", `unknown key "eval_speculate"`},
		"deleted batch":   {"cells 4 4 4\nduration 1\neval_cache 64\neval_batch 16\n", `unknown key "eval_batch"`},
		"deleted workers": {"cells 4 4 4\nduration 1\neval_cache 64\neval_workers 3\n", `unknown key "eval_workers"`},
		"deleted f32":     {"cells 4 4 4\nduration 1\neval_cache 64\neval_f32 on\n", `unknown key "eval_f32"`},
		"deleted shards":  {"cells 4 4 4\nduration 1\neval_cache 64\neval_shards 4\n", `unknown key "eval_shards"`},
		"deleted p99":     {"cells 4 4 4\nduration 1\nslo_p99 0.005\n", `unknown key "slo_p99"`},
		"deleted rate":    {"cells 4 4 4\nduration 1\nslo_error_rate 0.01\n", `unknown key "slo_error_rate"`},
		"deleted window":  {"cells 4 4 4\nduration 1\nslo_window 30\n", `unknown key "slo_window"`},
		"deleted burn":    {"cells 4 4 4\nduration 1\nslo_burn 3\n", `unknown key "slo_burn"`},
		"deleted capture": {"cells 4 4 4\nduration 1\nblackbox_dir bb\n", `unknown key "blackbox_dir"`},
	} {
		if _, err := Parse(strings.NewReader(bad.deck)); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, bad.want)
		}
	}
}

// TestSwitchKeys: every on/off key takes the same six spellings, and a bad
// or missing value is refused with an error that names the key.
func TestSwitchKeys(t *testing.T) {
	const head = "cells 4 4 4\nduration 1\neval_fleet a:1\nrestart prev.ck\n"
	for _, key := range []string{"eval_fallback", "trace", "fork"} {
		for val, want := range map[string]bool{"on": true, "TRUE": true, "1": true, "off": false, "False": false, "0": false} {
			d, err := Parse(strings.NewReader(head + key + " " + val + "\n"))
			if err != nil {
				t.Fatalf("%s %s: %v", key, val, err)
			}
			if got := map[string]bool{"eval_fallback": d.Config.EvalFallback, "trace": d.Config.Trace, "fork": d.Fork}[key]; got != want {
				t.Errorf("%s %s parsed as %v", key, val, got)
			}
		}
		for _, bad := range []string{key + " maybe\n", key + "\n", key + " on off\n"} {
			if _, err := Parse(strings.NewReader(head + bad)); err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%q: error %v does not name %s", bad, err, key)
			}
		}
	}
}

func TestEvalFleetKeys(t *testing.T) {
	deck := "cells 4 4 4\nduration 1e-8\n" +
		"eval_fleet 10.0.0.1:7077 10.0.0.2:7077\neval_retry 3\neval_timeout 2.5\n"
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	c := d.Config
	if len(c.EvalFleet) != 2 || c.EvalFleet[0] != "10.0.0.1:7077" || c.EvalFleet[1] != "10.0.0.2:7077" {
		t.Fatalf("eval_fleet misparsed: %+v", c.EvalFleet)
	}
	if c.EvalRetry != 3 {
		t.Fatalf("eval_retry misparsed: %d", c.EvalRetry)
	}
	if c.EvalTimeout != 2500*time.Millisecond {
		t.Fatalf("eval_timeout misparsed: %v", c.EvalTimeout)
	}
	if !c.EvalFallback {
		t.Fatal("fleet run did not default eval_fallback on")
	}

	// Explicit off must stick regardless of key order.
	d, err = Parse(strings.NewReader("eval_fallback off\ncells 4 4 4\nduration 1\neval_fleet a:1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.EvalFallback {
		t.Fatal("explicit eval_fallback off was overridden")
	}

	// An explicit zero retry budget means none, not "default".
	d, err = Parse(strings.NewReader("cells 4 4 4\nduration 1\neval_fleet a:1\neval_retry 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.EvalRetry >= 0 {
		t.Fatalf("eval_retry 0 parsed as %d, want negative (disabled)", d.Config.EvalRetry)
	}

	for name, bad := range map[string]string{
		"fleet no addr":       "cells 4 4 4\nduration 1\neval_fleet\n",
		"retry sans fleet":    "cells 4 4 4\nduration 1\neval_retry 2\n",
		"timeout sans fleet":  "cells 4 4 4\nduration 1\neval_timeout 5\n",
		"fallback sans fleet": "cells 4 4 4\nduration 1\neval_fallback on\n",
		"neg retry":           "cells 4 4 4\nduration 1\neval_fleet a:1\neval_retry -1\n",
		"zero timeout":        "cells 4 4 4\nduration 1\neval_fleet a:1\neval_timeout 0\n",
		"bad fallback":        "cells 4 4 4\nduration 1\neval_fleet a:1\neval_fallback maybe\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestObservabilityKeys(t *testing.T) {
	deck := "cells 4 4 4\nduration 1e-8\n" +
		"trace on\ntelemetry_addr 127.0.0.1:0\nevent_log events.jsonl\n"
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Config.Trace {
		t.Fatal("trace on misparsed")
	}
	if d.TelemetryAddr != "127.0.0.1:0" || d.EventLog != "events.jsonl" {
		t.Fatalf("telemetry keys misparsed: addr=%q log=%q", d.TelemetryAddr, d.EventLog)
	}

	// trace off is the default and explicit off parses.
	d, err = Parse(strings.NewReader("cells 4 4 4\nduration 1\ntrace off\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.Trace {
		t.Fatal("trace off misparsed")
	}

	for name, bad := range map[string]string{
		"bad trace":    "cells 4 4 4\nduration 1\ntrace maybe\n",
		"addr no host": "cells 4 4 4\nduration 1\ntelemetry_addr\n",
		"log no path":  "cells 4 4 4\nduration 1\nevent_log\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
