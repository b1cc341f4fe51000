package input

import (
	"strings"
	"testing"
	"time"
)

// FuzzParseDeck throws arbitrary deck text at the parser: it must never
// panic, and any deck it accepts must satisfy the documented validation
// contract (required keys present, composition fractions sane, retry and
// audit knobs non-negative).
func FuzzParseDeck(f *testing.F) {
	f.Add("cells 10 10 10\nduration 1e-8\n")
	f.Add(`# Fe-Cu thermal aging
cells        100 100 100
lattice      2.87
cu           0.0134
vacancy      0.000008
temperature  573
cutoff       6.5
duration     1e-3
seed         42
potential    eam
ranks        2 2 1
tstop        2e-8
snapshots    10
dump         solute
checkpoint   state.box
checkpoint_every 1e-4
max_retries  3
audit_every  5
exchange_timeout 30
`)
	f.Add("restart prev.box\nduration 1e-8\npotential nnp weights.nnp\n")
	f.Add("cells 1 1 1\nduration 0\n")                // rejected: non-positive duration
	f.Add("duration 1e-8\n")                          // rejected: no cells/restart
	f.Add("cells 10 10 10\nduration 1e-8\nseed -1\n") // rejected: negative seed
	f.Add("checkpoint_every 1\nduration 1\ncells 1 1 1\n")
	f.Add("max_retries -2\ncells 1 1 1\nduration 1\n")
	f.Add("exchange_timeout 0\ncells 1 1 1\nduration 1\n")
	f.Add("cells 4 4 4\nduration 1\ntemperature 0\n") // rejected: zero is not a temperature
	f.Add("cells 4 4 4\nduration 1\ntstop -0\n")      // rejected: nor is negative zero a quantum
	f.Add("cells 10 10 10 # inline comment\nduration 1e-8\r\n")
	f.Add("CELLS 2 2 2\nDuration 1\n") // keys are case-insensitive
	f.Add("cells\n")
	f.Add(strings.Repeat("a", 300))
	// Rejected: 1e-10 s truncates to 0 ns, and 9.3e9 s overflows a
	// time.Duration; either would read as "no timeout".
	f.Add("exchange_timeout 1e-10\ncells 1 1 1\nduration 1\n")
	f.Add("eval_fleet 127.0.0.1:1\neval_timeout 9.3e9\ncells 1 1 1\nduration 1\n")

	f.Fuzz(func(t *testing.T, text string) {
		d, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		if d.Duration <= 0 {
			t.Fatalf("accepted non-positive duration %v", d.Duration)
		}
		if d.Config.Cells == [3]int{} && d.RestartFile == "" {
			t.Fatal("accepted deck with neither cells nor restart")
		}
		if d.MaxRetries < 0 || d.AuditEvery < 0 || d.Snapshots < 0 {
			t.Fatalf("accepted negative knobs: retries=%d audit=%d snapshots=%d", d.MaxRetries, d.AuditEvery, d.Snapshots)
		}
		if c := d.Config; c.LatticeConstant < 0 || c.Temperature < 0 || c.Cutoff < 0 || c.TStop < 0 {
			t.Fatalf("accepted a negative lattice, temperature, cutoff or tstop: %v %v %v %v", c.LatticeConstant, c.Temperature, c.Cutoff, c.TStop)
		}
		// A timeout is 0 only when its key is absent: a value that
		// truncated to 0 or overflowed would read as "no timeout".
		present := map[string]bool{}
		for _, line := range strings.Split(text, "\n") {
			line, _, _ = strings.Cut(line, "#")
			if f := strings.Fields(line); len(f) > 0 {
				present[strings.ToLower(f[0])] = true
			}
		}
		for key, v := range map[string]time.Duration{
			"exchange_timeout": d.Config.ExchangeTimeout, "eval_timeout": d.Config.EvalTimeout,
		} {
			if v < 0 || (v == 0) == present[key] {
				t.Fatalf("accepted %s = %v: want 0 with the key absent, at least 1 ns with it present", key, v)
			}
		}
		if d.CheckpointEvery > 0 && d.CheckpointFile == "" {
			t.Fatal("accepted checkpoint_every without checkpoint")
		}
	})
}
