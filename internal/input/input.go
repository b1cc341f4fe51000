// Package input parses the tensorkmc input deck: the plain-text
// key/value format behind the paper artifact's `tensorkmc -in input`
// invocation. Lines are `key value [value...]`; `#` starts a comment;
// keys are case-insensitive.
//
// Example deck:
//
//	# Fe-Cu thermal aging, Fig. 8 conditions
//	cells        100 100 100
//	lattice      2.87
//	cu           0.0134
//	vacancy      0.000008
//	temperature  573
//	cutoff       6.5
//	duration     1e-3
//	seed         42
//	potential    eam
//	ranks        2 2 1
//	tstop        2e-8
//	max_retries  3
//	audit_every  5
//	exchange_timeout 30
//	eval_cache   32768   # opt-in shared evaluation service (entries)
//	eval_fleet   10.0.0.1:7077 10.0.0.2:7077   # remote evaluation fleet
//	eval_retry   2       # extra attempts per node before failover
//	eval_timeout 5       # per-request wire deadline (seconds)
//	eval_fallback on     # local evaluation when the fleet is gone
//	tenant       alice   # control-plane job owner (tkmc-ctl)
//	priority     high    # control-plane class: low, normal or high
package input

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/nnp"
)

// Deck is a parsed input file.
type Deck struct {
	Config core.Config
	// Duration is the simulated time in seconds.
	Duration float64
	// PotentialFile, if set, is loaded as the NNP.
	PotentialFile string
	// Snapshots asks the runner to report observables this many times
	// during the run (0 = only at the end).
	Snapshots int
	// DumpFile, if set, receives extended-XYZ solute snapshots
	// ("<base>.<n>.xyz" per snapshot plus a final one).
	DumpFile string
	// CheckpointFile, if set, receives a crash-safe full-state
	// checkpoint (TKMCBOX2: box, clock, hops, RNG state) at the end of
	// the run — and, with CheckpointEvery, periodically during it.
	// RestartFile, if set, resumes from a previous checkpoint instead
	// of a random alloy; legacy box-only TKMCBOX1 snapshots are
	// accepted too.
	CheckpointFile string
	RestartFile    string
	// CheckpointEvery is the simulated-seconds interval between in-run
	// checkpoints (0 = only at the end). Requires CheckpointFile.
	CheckpointEvery float64
	// MaxRetries bounds the supervisor's replays per failed run segment
	// (0 = fail on the first error).
	MaxRetries int
	// AuditEvery runs the physics invariant auditor after every Nth
	// segment (0 = only after recoveries).
	AuditEvery int
	// TelemetryAddr, if set, opens the opt-in telemetry HTTP endpoint
	// on this address (host:port; port 0 lets the kernel pick) serving
	// /metrics, /healthz, /events and /debug/pprof for the run.
	TelemetryAddr string
	// EventLog, if set, receives the flight-recorder event journal as
	// JSONL when the run exits — on every exit path, including crashes.
	EventLog string
	// Tenant and Priority are job-level keys read by the tkmc-ctl
	// control plane: Tenant names the submitting owner for quota
	// accounting, Priority picks the scheduling class ("low", "normal"
	// or "high"; empty means normal). Both are inert outside the
	// control plane, so a deck that runs under tkmc-ctl also runs
	// unchanged under plain tensorkmc.
	Tenant   string
	Priority string
	// TrajLog, if set, records the run into an event-sourced TKMCTRJ1
	// trajectory log at this path (every hop/clip serially, every
	// segment in parallel), with full-state snapshots every
	// TrajSnapshotEvery events (0 = only the initial one). The log
	// replays via `tkmc-analyze replay`.
	TrajLog           string
	TrajSnapshotEvery int
	// EnsembleReplicas, when positive, marks the deck as an ensemble
	// parent for the tkmc-ctl control plane: submission fans out this
	// many replica child jobs, each with an independently derived seed,
	// and aggregates their observables into mean ± stderr. Inert under
	// plain tensorkmc (which runs one trajectory).
	EnsembleReplicas int
	// Fork, with restart, drops the checkpoint's RNG state so the run
	// branches from the restored lattice under the deck's own seed
	// instead of continuing the recorded stream — the ensemble-replica
	// divergence mechanism.
	Fork bool

	// evalFallbackSet records an explicit 'eval_fallback' line, so Parse
	// can default fallback ON for fleet runs without overriding the
	// user's choice (key order in the deck must not matter).
	evalFallbackSet bool
}

// Parse reads a deck from r.
func Parse(r io.Reader) (*Deck, error) {
	d := &Deck{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		key := strings.ToLower(fields[0])
		args := fields[1:]
		if err := d.apply(key, args); err != nil {
			return nil, fmt.Errorf("input: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d.Config.Cells == [3]int{} && d.RestartFile == "" {
		return nil, fmt.Errorf("input: missing required key 'cells' (or 'restart')")
	}
	if d.Duration <= 0 {
		return nil, fmt.Errorf("input: missing or non-positive 'duration'")
	}
	if d.CheckpointEvery > 0 && d.CheckpointFile == "" {
		return nil, fmt.Errorf("input: 'checkpoint_every' requires 'checkpoint'")
	}
	if d.TrajSnapshotEvery > 0 && d.TrajLog == "" {
		return nil, fmt.Errorf("input: 'traj_snapshot_every' requires 'traj_log'")
	}
	if d.Fork && d.RestartFile == "" {
		return nil, fmt.Errorf("input: 'fork' requires 'restart'")
	}
	if len(d.Config.EvalFleet) == 0 {
		if d.Config.EvalRetry != 0 || d.Config.EvalTimeout > 0 || d.evalFallbackSet {
			return nil, fmt.Errorf("input: 'eval_retry', 'eval_timeout' and 'eval_fallback' require 'eval_fleet'")
		}
	} else if !d.evalFallbackSet {
		// Graceful degradation is the default for fleet runs: losing the
		// whole fleet should slow a simulation down, not kill it.
		d.Config.EvalFallback = true
	}
	return d, nil
}

// ParseFile reads a deck from a file.
func ParseFile(path string) (*Deck, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func (d *Deck) apply(key string, args []string) error {
	switch key {
	case "cells":
		v, err := ints(key, args, 3)
		if err != nil {
			return err
		}
		d.Config.Cells = [3]int{v[0], v[1], v[2]}
	case "ranks":
		v, err := ints(key, args, 3)
		if err != nil {
			return err
		}
		if min(v[0], v[1], v[2]) <= 0 {
			return fmt.Errorf("ranks must be positive on every axis, got %s", strings.Join(args, " "))
		}
		d.Config.Ranks = [3]int{v[0], v[1], v[2]}
	case "lattice":
		return positive(key, args, &d.Config.LatticeConstant)
	case "cu":
		return float1(key, args, &d.Config.CuFraction)
	case "vacancy":
		return float1(key, args, &d.Config.VacancyFraction)
	case "temperature":
		return positive(key, args, &d.Config.Temperature)
	case "cutoff":
		return positive(key, args, &d.Config.Cutoff)
	case "tstop":
		return positive(key, args, &d.Config.TStop)
	case "duration":
		return float1(key, args, &d.Duration)
	case "seed":
		if len(args) != 1 {
			return fmt.Errorf("seed wants one value")
		}
		v, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("invalid seed %q", args[0])
		}
		d.Config.Seed = v
	case "snapshots":
		return nonNegInt(key, args, &d.Snapshots)
	case "dump":
		return word(key, args, &d.DumpFile)
	case "checkpoint":
		return word(key, args, &d.CheckpointFile)
	case "checkpoint_every":
		if err := float1(key, args, &d.CheckpointEvery); err != nil {
			return err
		}
		if d.CheckpointEvery <= 0 {
			return fmt.Errorf("checkpoint_every wants a positive interval in seconds")
		}
	case "max_retries":
		return nonNegInt(key, args, &d.MaxRetries)
	case "audit_every":
		return nonNegInt(key, args, &d.AuditEvery)
	case "exchange_timeout":
		return seconds(key, args, &d.Config.ExchangeTimeout)
	case "eval_cache":
		return nonNegInt(key, args, &d.Config.EvalCache)
	case "eval_fleet":
		if len(args) < 1 {
			return fmt.Errorf("eval_fleet wants one or more host:port addresses")
		}
		d.Config.EvalFleet = append([]string(nil), args...)
	case "eval_retry":
		if err := nonNegInt(key, args, &d.Config.EvalRetry); err != nil {
			return err
		}
		if d.Config.EvalRetry == 0 {
			// An explicit zero means "no retries"; the config encodes
			// that as negative so the zero value can keep meaning "fleet
			// default".
			d.Config.EvalRetry = -1
		}
	case "eval_timeout":
		return seconds(key, args, &d.Config.EvalTimeout)
	case "eval_fallback":
		d.evalFallbackSet = true
		return onOff(key, args, &d.Config.EvalFallback)
	case "telemetry_addr":
		return word(key, args, &d.TelemetryAddr)
	case "trace":
		return onOff(key, args, &d.Config.Trace)
	case "event_log":
		return word(key, args, &d.EventLog)
	case "restart":
		return word(key, args, &d.RestartFile)
	case "traj_log":
		return word(key, args, &d.TrajLog)
	case "traj_snapshot_every":
		if err := nonNegInt(key, args, &d.TrajSnapshotEvery); err != nil {
			return err
		}
		if d.TrajSnapshotEvery == 0 {
			return fmt.Errorf("traj_snapshot_every wants a positive event count")
		}
	case "ensemble_replicas":
		if err := nonNegInt(key, args, &d.EnsembleReplicas); err != nil {
			return err
		}
		if d.EnsembleReplicas > 4096 {
			return fmt.Errorf("ensemble_replicas %d exceeds the 4096 cap", d.EnsembleReplicas)
		}
	case "fork":
		return onOff(key, args, &d.Fork)
	case "tenant":
		return word(key, args, &d.Tenant)
	case "priority":
		if len(args) != 1 {
			return fmt.Errorf("priority wants 'low', 'normal' or 'high'")
		}
		switch p := strings.ToLower(args[0]); p {
		case "low", "normal", "high":
			d.Priority = p
		default:
			return fmt.Errorf("unknown priority %q (want low, normal or high)", args[0])
		}
	case "potential":
		if len(args) < 1 {
			return fmt.Errorf("potential wants 'eam' or 'nnp <file>'")
		}
		switch strings.ToLower(args[0]) {
		case "eam":
			if len(args) != 1 {
				return fmt.Errorf("potential eam takes no argument")
			}
			d.Config.Potential = core.EAM
		case "nnp":
			d.Config.Potential = core.NNP
			if len(args) != 2 {
				return fmt.Errorf("potential nnp wants a file path")
			}
			d.PotentialFile = args[1]
		default:
			return fmt.Errorf("unknown potential %q", args[0])
		}
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// Finish loads any referenced potential file and returns the config
// ready for core.New.
func (d *Deck) Finish() (core.Config, error) {
	cfg := d.Config
	if d.PotentialFile != "" {
		pot, err := nnp.LoadFile(d.PotentialFile)
		if err != nil {
			return cfg, fmt.Errorf("input: loading potential: %w", err)
		}
		cfg.Net = pot
	}
	if d.RestartFile != "" {
		ck, err := core.LoadCheckpointOrBackup(d.RestartFile)
		if err != nil {
			return cfg, fmt.Errorf("input: loading restart: %w", err)
		}
		if d.Fork {
			// Branch, don't continue: keep the restored lattice and clock
			// but draw a fresh stream from the deck's seed, so replicas
			// forked from one snapshot diverge deterministically.
			ck.HasRNG = false
			ck.RNG = [4]uint64{}
		}
		cfg.Restart = ck
		cfg.InitialBox = ck.Box
	}
	cfg.CheckpointPath = d.CheckpointFile
	cfg.CheckpointEvery = d.CheckpointEvery
	return cfg, nil
}

func ints(key string, args []string, n int) ([]int, error) {
	if len(args) != n {
		return nil, fmt.Errorf("%s wants %d integers, got %d", key, n, len(args))
	}
	out := make([]int, n)
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("invalid %s %q", key, a)
		}
		out[i] = v
	}
	return out, nil
}

func nonNegInt(key string, args []string, dst *int) error {
	if len(args) != 1 {
		return fmt.Errorf("%s wants one integer, got %d", key, len(args))
	}
	v, err := strconv.Atoi(args[0])
	if err != nil || v < 0 {
		return fmt.Errorf("invalid %s %q", key, args[0])
	}
	*dst = v
	return nil
}

// word parses a key that takes one word: a path, an address or a name.
func word(key string, args []string, dst *string) error {
	if len(args) != 1 {
		return fmt.Errorf("%s wants one value, got %d", key, len(args))
	}
	*dst = args[0]
	return nil
}

// seconds parses a positive wall-clock interval given in seconds. It
// must come to at least 1 ns and fit a time.Duration: a zero or an
// overflowed Duration would read as "no timeout" downstream.
func seconds(key string, args []string, dst *time.Duration) error {
	var secs float64
	if err := float1(key, args, &secs); err != nil {
		return err
	}
	ns := secs * float64(time.Second)
	if !(ns >= 1 && ns < math.MaxInt64) {
		return fmt.Errorf("%s wants a wall-clock interval from 1e-9 to %.4g seconds", key, math.MaxInt64/float64(time.Second))
	}
	*dst = time.Duration(ns)
	return nil
}

// onOff parses a switch: on/true/1 or off/false/0, any case.
func onOff(key string, args []string, dst *bool) error {
	if len(args) != 1 {
		return fmt.Errorf("%s wants 'on' or 'off'", key)
	}
	switch strings.ToLower(args[0]) {
	case "on", "true", "1":
		*dst = true
	case "off", "false", "0":
		*dst = false
	default:
		return fmt.Errorf("invalid %s %q", key, args[0])
	}
	return nil
}

func float1(key string, args []string, dst *float64) error {
	if len(args) != 1 {
		return fmt.Errorf("%s wants one number, got %d", key, len(args))
	}
	v, err := strconv.ParseFloat(args[0], 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("invalid %s %q", key, args[0])
	}
	*dst = v
	return nil
}

// positive parses one number that must be above zero. The deck has no
// way to ask for a default but leaving the key out, so a zero is refused
// rather than read as "use the default" the way core.Config reads it.
func positive(key string, args []string, dst *float64) error {
	var v float64
	if err := float1(key, args, &v); err != nil {
		return err
	}
	if v <= 0 {
		return fmt.Errorf("%s must be positive, got %s", key, args[0])
	}
	*dst = v
	return nil
}
