package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tensorkmc/internal/core"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/fusion"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/sw"
	"tensorkmc/internal/traj"
)

// probes are direct calls into single layers, on the environments the
// traced rep captured at the model seam and on its final state. They
// give the unit costs the span shares are made of.
func (e *runEnv) probes(l *layers, run *tracedRun, res *childResult) {
	tb, cfg := run.tb, run.cfg
	vets := run.vets.vets
	if len(vets) == 0 {
		return
	}

	// encoding: the three table operations on the engine's hot path and
	// the service's key path.
	centres := lattice.Vacancies(run.box)
	scratch := tb.NewVET()
	l.set("encoding.fill_vet_ns", perCall(e.loops(2000), func(i int) {
		tb.FillVET(scratch, centres[i%len(centres)], run.box.Get)
	}))
	var sink uint64
	l.set("encoding.fingerprint_ns", perCall(e.loops(20000), func(i int) { sink += tb.Fingerprint(vets[i%len(vets)]) }))
	var env []byte
	l.set("encoding.encode_env_ns", perCall(e.loops(20000), func(i int) { env = tb.EncodeEnv(vets[i%len(vets)]) }))
	_, _ = sink, env

	switch cfg.Potential {
	case core.EAM:
		l.set("eam.fast_vs_ref_max_rel_err", fastVsRef(tb, vets[:min(len(vets), 32)]))
	case core.NNP:
		e.nnpProbes(l, tb, cfg.Net, vets[:min(len(vets), 16)])
	}
	if cfg.Potential == core.NNP && cfg.EvalCache > 0 {
		e.fusionProbes(l, tb, cfg.Net)
	}
	if run.fleetStats != nil {
		e.wireProbe(l, run, tb)
	}
	if run.ranks != nil {
		e.efficiencyProbe(l, res, len(run.ranks))
	}
	if run.trajStats != nil {
		if err := e.durableProbes(l, run); err != nil {
			res.addCheck("durable_probes", false, "%v", err)
		}
	}
}

// nnpProbes split one region-energy evaluation into its feature part
// and the rest (normalise + MLP forward).
func (e *runEnv) nnpProbes(l *layers, tb *encoding.Tables, pot *nnp.Potential, vets []encoding.VET) {
	ev := nnp.NewLatticeEvaluator(pot, tb)
	var sink float64
	region := perCall(e.loops(4*len(vets)), func(i int) { sink += ev.RegionEnergy(vets[i%len(vets)]) }) / 1e3
	out := make([]float64, tb.NRegion*pot.Desc.Dim())
	feat := perCall(e.loops(4*len(vets)), func(i int) { feature.ComputeRegion(tb, ev.Tab, vets[i%len(vets)], out) }) / 1e3
	_ = sink
	l.set("nnp.region_us", region)
	l.set("feature.region_us", feat)
	l.set("feature.share_of_region", feat/region)
	l.set("nnp.forward_us_per_region", region-feat)
}

// fusionProbes time the wide big-fusion operator alone and run the
// known-defect canary.
func (e *runEnv) fusionProbes(l *layers, tb *encoding.Tables, pot *nnp.Potential) {
	const rows = 2048
	net := pot.Nets[lattice.Fe]
	x := nnp.NewMatrix(rows, net.InputDim())
	r := rng.New(7) // fixed: the probe matrix is not a workload input
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	arch := sw.SW26010Pro()
	nsPerLaunch := perCall(3, func(int) { fusion.RunBigFusionWide(net, x, arch, 0) })
	l.set("fusion.wide_ns_per_row", nsPerLaunch/rows)
	// Computed, not measured: flops follow from the layer shapes.
	l.set("fusion.gflops_computed", float64(rows*net.FlopsPerSample())/nsPerLaunch)
	l.set("evalserve.oracle_mismatches", float64(oracleMismatches(tb, pot)))
}

// oracleMismatches is the canary for the known FusionBackend defect (see
// README "Known defects"): it evaluates a fixed probe set — every 1NN
// divacancy orientation plus single-vacancy and 2NN-divacancy controls —
// through FusionBackend.EvaluateBatch and through the direct evaluator
// and counts the environments whose results differ in any bit. A panic
// inside the backend counts as a mismatch; it never aborts the harness.
func oracleMismatches(tb *encoding.Tables, pot *nnp.Potential) int {
	base := lattice.NewBox(12, 12, 12, tb.A)
	lattice.FillRandomAlloy(base, 0.05, 0, rng.New(11)) // fixed probe alloy
	centre := lattice.Vec{X: 4, Y: 4, Z: 4}
	var second []*lattice.Vec
	for k := range lattice.NN1 {
		v := centre.Add(lattice.NN1[k]) // k=5 puts it at (5,5,3), the reported case
		second = append(second, &v)
	}
	second = append(second, nil, nil, &lattice.Vec{X: 6, Y: 4, Z: 4}, &lattice.Vec{X: 4, Y: 6, Z: 4})
	centres := make([]lattice.Vec, len(second))
	for i := range centres {
		centres[i] = centre
	}
	centres[len(lattice.NN1)+1] = lattice.Vec{X: 9, Y: 9, Z: 9}

	direct := nnp.NewLatticeEvaluator(pot, tb)
	fused := evalserve.NewFusionBackend(pot, tb, evalserve.F64)
	mismatches := 0
	for i, other := range second {
		box := base.Clone()
		box.Set(centres[i], lattice.Vacancy)
		if other != nil {
			box.Set(*other, lattice.Vacancy)
		}
		vet := tb.NewVET()
		tb.FillVET(vet, centres[i], box.Get)
		if !sameAsDirect(direct, fused, vet) {
			mismatches++
		}
	}
	return mismatches
}

func sameAsDirect(direct kmc.Model, fused evalserve.Backend, vet encoding.VET) (same bool) {
	defer func() {
		if p := recover(); p != nil {
			same = false
		}
	}()
	wi, wf, wv := direct.HopEnergies(append(encoding.VET(nil), vet...))
	got := fused.EvaluateBatch([]encoding.VET{vet})
	return len(got) == 1 && got[0].Initial == wi && got[0].Final == wf && got[0].Valid == wv
}

// wireProbe replays the traced rep's captured VET sequence into a warm
// in-process server of the nodes' kind, so that the client-call mean
// minus this mean is what the wire, the session and the fleet client add
// on top of the server's hit path.
func (e *runEnv) wireProbe(l *layers, run *tracedRun, tb *encoding.Tables) {
	srv := newEAMServer(tb)
	defer srv.Close()
	vets := run.vets.vets
	for _, v := range vets { // first pass fills the cache
		if _, err := srv.Evaluate(v); err != nil {
			return
		}
	}
	inProcess := perCall(len(vets), func(i int) { _, _ = srv.Evaluate(vets[i]) })
	calls := durations(run.tr.spans, spanWire)
	if len(calls) > len(vets) {
		calls = calls[:len(vets)] // the same requests the replay covers
	}
	l.set("wire.overhead_us_per_request", (mean(calls)-inProcess)/1e3)
}

// efficiencyProbe runs the parallel deck once on the serial engine, in
// this process, for fixed-size scaling efficiency.
func (e *runEnv) efficiencyProbe(l *layers, res *childResult, ranks int) {
	serial, _ := e.runRep(repOptions{serial: true})
	if serial.Err != "" || serial.Hops == 0 {
		res.addCheck("serial_reference", false, "serial run of the parallel deck failed: %s", serial.Err)
		return
	}
	parallel := res.E2E["hops_per_s"].Median
	l.set("sublattice.efficiency_vs_serial", parallel/(float64(ranks)*float64(serial.Hops)/serial.RunS))
}

// durableProbes time the checkpoint writer, the trajectory recorder and
// replay in isolation, on the traced rep's final state and log.
func (e *runEnv) durableProbes(l *layers, run *tracedRun) error {
	ck, err := core.LoadCheckpoint(bytes.NewReader(run.image))
	if err != nil {
		return err
	}
	cfg := run.cfg
	cfg.Restart, cfg.Traj, cfg.CheckpointPath, cfg.CheckpointEvery = ck, nil, "", 0
	sim, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer sim.Close()
	path := filepath.Join(run.dir, "probe.tkmc")
	var ms []float64
	for i := 0; i < e.loops(50); i++ {
		t0 := time.Now()
		if err := sim.SaveCheckpoint(path); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	d := summarize(ms, 99)
	l.set("core.checkpoint_ms_p50", d.P50)
	l.dists["core.checkpoint_ms_p50"] = d
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.set("core.checkpoint_bytes", float64(fi.Size()))

	t0 := time.Now()
	replayed, err := core.ReplayToHop(filepath.Join(run.dir, e.parsed.TrajLog), run.hops, core.ReplayOptions{})
	if err != nil {
		return err
	}
	if replayed.Hops != run.hops {
		return fmt.Errorf("replay stopped at hop %d of %d", replayed.Hops, run.hops)
	}
	l.set("core.replay_hops_per_s", float64(run.hops)/time.Since(t0).Seconds())

	rec, err := traj.Open(filepath.Join(run.dir, "probe.trj"), traj.ModeSerial, 0)
	if err != nil {
		return err
	}
	defer rec.Close()
	if err := rec.Begin(0, 0); err != nil {
		return err
	}
	l.set("traj.hop_record_ns", perCall(e.loops(100000), func(i int) { rec.Hop(i&7, i&7, 1e-9) }))
	return nil
}
