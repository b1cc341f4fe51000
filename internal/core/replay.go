package core

import (
	"fmt"
	"path/filepath"

	"tensorkmc/internal/diffusion"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/traj"
)

// ReplayOptions tune time-travel replay.
type ReplayOptions struct {
	// FromStart seeds the replay from the log's first snapshot instead
	// of the nearest one below the target, so Observer sees every event
	// from the run's beginning (e.g. to accumulate MSD). The
	// reconstructed state is identical either way.
	FromStart bool
	// OnBase, if non-nil, receives the snapshot checkpoint the replay
	// starts from, before any event is applied.
	OnBase func(*Checkpoint) error
	// Observer, if non-nil, receives every replayed hop in order. Hop
	// events carry the full geometry (slot, direction, from/to, mover,
	// Δt); DeltaE is zero — energies are not stored in the log and
	// replay does not need an energy model.
	Observer func(kmc.Event)
}

// ReplayToHop reconstructs the exact run state — lattice, vacancy
// order, RNG stream and clock — at the given hop count of a serial
// trajectory log, byte-identical to a fresh run stopped there. It loads
// the chosen snapshot and replays forward, reproducing RNG consumption
// (three draws per hop or clipped interval) without evaluating a single
// energy: the log already proves which event won each draw.
func ReplayToHop(logPath string, target int64, opts ReplayOptions) (*Checkpoint, error) {
	lg, err := traj.ReadLog(logPath)
	if err != nil {
		return nil, err
	}
	if !lg.Begun {
		return nil, fmt.Errorf("core: trajectory log %s has no begin record", logPath)
	}
	if lg.Mode != traj.ModeSerial {
		return nil, fmt.Errorf("core: replay-to-hop needs a serial log; %s is %v (use ReplayParallelToHop with the deck)", logPath, lg.Mode)
	}
	base, start, err := pickSnapshot(lg, logPath, target, opts.FromStart)
	if err != nil {
		return nil, err
	}
	if !base.HasRNG {
		return nil, fmt.Errorf("core: snapshot at hop %d has no RNG state", base.Hops)
	}
	if opts.OnBase != nil {
		if err := opts.OnBase(base); err != nil {
			return nil, err
		}
	}
	box := base.Box
	centers := append([]lattice.Vec(nil), base.Vacancies...)
	rnd, err := rng.FromState(base.RNG)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot RNG state: %w", err)
	}
	hops, time := base.Hops, base.Time
	for _, rec := range lg.Records[start:] {
		if hops == target {
			break
		}
		switch rec.Kind {
		case traj.KindHop:
			// Reproduce the engine's exact draw pattern: slot target,
			// direction target, residence time. The values are discarded —
			// the log records which event they selected — but the stream
			// must advance identically.
			rnd.Float64()
			rnd.Float64()
			rnd.Float64Open()
			if rec.Slot >= len(centers) {
				return nil, fmt.Errorf("core: hop %d names vacancy slot %d of %d", hops+1, rec.Slot, len(centers))
			}
			from := centers[rec.Slot]
			to := box.Wrap(from.Add(lattice.NN1[rec.Dir]))
			mover := box.Get(to)
			if mover == lattice.Vacancy {
				return nil, fmt.Errorf("core: hop %d at %v moves a vacancy onto a vacancy; log does not match snapshot", hops+1, to)
			}
			box.Set(from, mover)
			box.Set(to, lattice.Vacancy)
			centers[rec.Slot] = to
			hops++
			time += rec.DeltaT
			if opts.Observer != nil {
				opts.Observer(kmc.Event{
					Slot: rec.Slot, Direction: rec.Dir,
					From: from, To: to, Mover: mover, DeltaT: rec.DeltaT,
				})
			}
		case traj.KindClip:
			// The engine drew past the interval limit: three draws
			// consumed, clock pinned.
			rnd.Float64()
			rnd.Float64()
			rnd.Float64Open()
			time = rec.Limit
		case traj.KindSnapshot, traj.KindRecovery:
			// Metadata; no draws, no state.
		case traj.KindSegment:
			return nil, fmt.Errorf("core: segment record in a serial log")
		}
	}
	if hops != target {
		return nil, fmt.Errorf("core: log ends at hop %d, before target %d", hops, target)
	}
	return &Checkpoint{
		Box:       box,
		Time:      time,
		Hops:      hops,
		Segment:   base.Segment,
		HasRNG:    true,
		RNG:       rnd.State(),
		Vacancies: centers,
	}, nil
}

// ReplayDiffusion replays a serial trajectory log from its first
// snapshot to the target hop, as ReplayToHop with FromStart does, and
// returns the reconstructed state with a diffusion.Tracker that has
// recorded every replayed hop.
func ReplayDiffusion(logPath string, target int64) (*Checkpoint, *diffusion.Tracker, error) {
	var tr *diffusion.Tracker
	ck, err := ReplayToHop(logPath, target, ReplayOptions{
		FromStart: true,
		OnBase: func(base *Checkpoint) error {
			tr = diffusion.NewTracker(base.Box, len(base.Vacancies))
			return nil
		},
		Observer: func(ev kmc.Event) { tr.Record(ev) },
	})
	if err != nil {
		return nil, nil, err
	}
	return ck, tr, nil
}

// ReplayParallelToHop reconstructs the state of a parallel run at a
// recorded segment boundary by loading the nearest snapshot and
// re-running the logged segments under the original configuration
// (segments reseed deterministically from Seed+index, so re-execution
// is bit-exact). The target must be a segment boundary's hop count —
// between boundaries, parallel hops have no global order to replay.
func ReplayParallelToHop(cfg Config, logPath string, target int64) (*Checkpoint, error) {
	lg, err := traj.ReadLog(logPath)
	if err != nil {
		return nil, err
	}
	if !lg.Begun {
		return nil, fmt.Errorf("core: trajectory log %s has no begin record", logPath)
	}
	if lg.Mode != traj.ModeParallel {
		return nil, fmt.Errorf("core: %s is a %v log, not parallel", logPath, lg.Mode)
	}
	if !cfg.parallel() {
		return nil, fmt.Errorf("core: replaying a parallel log needs the parallel deck configuration")
	}
	base, start, err := pickSnapshot(lg, logPath, target, false)
	if err != nil {
		return nil, err
	}
	cfg.Restart = base
	cfg.InitialBox = nil
	cfg.CheckpointPath = ""
	cfg.CheckpointEvery = 0
	cfg.Traj = nil
	sim, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding parallel run: %w", err)
	}
	defer sim.Close()
	for _, rec := range lg.Records[start:] {
		if rec.Kind != traj.KindSegment {
			continue
		}
		if sim.Hops() >= target {
			break
		}
		if _, err := sim.Run(rec.Duration, nil); err != nil {
			return nil, fmt.Errorf("core: replaying segment %d: %w", rec.Seg, err)
		}
		if sim.Hops() != rec.Hops || sim.Time() != rec.Time {
			return nil, fmt.Errorf("core: segment %d replayed to (hops=%d t=%v), log says (hops=%d t=%v) — deck does not match log",
				rec.Seg, sim.Hops(), sim.Time(), rec.Hops, rec.Time)
		}
	}
	if sim.Hops() != target {
		return nil, fmt.Errorf("core: target hop %d is not a recorded segment boundary (reached %d)", target, sim.Hops())
	}
	return sim.Checkpoint(), nil
}

// pickSnapshot selects the replay base: the latest snapshot at or below
// target (or the earliest one when fromStart is set), loads its
// checkpoint file from the log's directory, and returns the record
// index replay resumes from.
func pickSnapshot(lg *traj.Log, logPath string, target int64, fromStart bool) (*Checkpoint, int, error) {
	if target < lg.StartHops {
		return nil, 0, fmt.Errorf("core: target hop %d predates the log (starts at %d)", target, lg.StartHops)
	}
	best := -1
	for i, rec := range lg.Records {
		if rec.Kind != traj.KindSnapshot || rec.Hops > target {
			continue
		}
		best = i
		if fromStart {
			break
		}
	}
	if best < 0 {
		return nil, 0, fmt.Errorf("core: no snapshot at or below hop %d in %s", target, logPath)
	}
	rec := lg.Records[best]
	path := filepath.Join(filepath.Dir(logPath), rec.Name)
	ck, err := LoadCheckpointOrBackup(path)
	if err != nil {
		return nil, 0, fmt.Errorf("core: loading snapshot %s: %w", rec.Name, err)
	}
	if ck.Hops != rec.Hops || ck.Time != rec.Time {
		return nil, 0, fmt.Errorf("core: snapshot %s is at (hops=%d t=%v), log says (hops=%d t=%v)",
			rec.Name, ck.Hops, ck.Time, rec.Hops, rec.Time)
	}
	return ck, best + 1, nil
}
