package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"

	"tensorkmc/internal/core"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
)

// Simulated time of the equivalence checks: eam_fleet_2n ≡ eam_serial
// over a few thousand hops, well under a second per side; nnp_cached ≡
// nnp_direct over ≈300 hops, about two seconds on the direct side.
const (
	eamCrossDuration = 3e-5
	nnpCrossDuration = 1.2e-8
)

// outputChecks verifies what the timed repetitions produced. The checks
// run untimed, after the repetitions; each counts as one attempt in
// error_share. Hashes are SHA-256 of the checkpoint image: a TKMCBOX2
// file ends in its own CRC-32, so the CRC-32 of the whole file is the
// same constant residue for every checkpoint and proves nothing.
func (e *runEnv) outputChecks(res *childResult) {
	var good []repResult
	for _, r := range res.Reps {
		if r.Err == "" {
			good = append(good, r)
		}
	}
	if len(good) == 0 {
		res.addCheck("reps_agree", false, "no repetition succeeded")
		return
	}
	first := good[0]

	agree := true
	for _, r := range good[1:] {
		if r.Hops != first.Hops || r.SimTime != first.SimTime || r.SHA != first.SHA {
			agree = false
		}
	}
	res.addCheck("reps_agree", agree, "%d reps: hops=%d t=%.6g sha256=%.12s", len(good), first.Hops, first.SimTime, first.SHA)

	conserved := true
	for _, r := range good {
		if r.Before != r.After {
			conserved = false
		}
	}
	res.addCheck("species_conserved", conserved, "Fe/Cu/vacancy %v", first.After)

	switch e.wl.Name {
	case "nnp_cached":
		e.checkSameAs(res, "nnp_direct", nnpCrossDuration)
	case "eam_fleet_2n":
		e.checkSameAs(res, "eam_serial", eamCrossDuration)
	case "eam_durable":
		e.checkReplay(res)
	}
	if e.parsed.Config.Potential == core.EAM {
		e.checkFastEAM(res, first.ckpt)
	}
}

// checkSameAs runs this workload and the named reference workload for a
// common simulated duration and requires byte-identical final
// checkpoints: the evaluation service and the fleet must be invisible to
// the physics.
func (e *runEnv) checkSameAs(res *childResult, reference string, duration float64) {
	name := "same_as_" + reference
	wl, _ := findWorkload(reference)
	ref, err := newEnv(wl, e.seed, e.scale)
	if err != nil {
		res.addCheck(name, false, "%v", err)
		return
	}
	duration *= e.scale
	want, _ := ref.runRep(repOptions{duration: duration})
	got, _ := e.runRep(repOptions{duration: duration})
	switch {
	case want.Err != "":
		res.addCheck(name, false, "%s run failed: %s", reference, want.Err)
	case got.Err != "":
		res.addCheck(name, false, "%s run failed: %s", e.wl.Name, got.Err)
	default:
		res.addCheck(name, got.SHA == want.SHA && got.Hops == want.Hops,
			"%d hops over %.3g s: sha256 %.12s vs %.12s", want.Hops, duration, got.SHA, want.SHA)
	}
}

// checkReplay runs a quarter-length repetition that keeps its files,
// then requires that replaying its trajectory log to the final hop
// reconstructs the final state — lattice, vacancy slot order and hop
// count — and that the checkpoint file on disk is the final image byte
// for byte. Clock and RNG state are not compared: a run ends with a
// clipped draw that pins the clock to the interval limit, and
// ReplayToHop by contract stops at the hop, before that record.
func (e *runEnv) checkReplay(res *childResult) {
	const name = "replay_equals_checkpoint"
	r, dir := e.runRep(repOptions{duration: e.duration / 4, keepFiles: true})
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if r.Err != "" {
		res.addCheck(name, false, "repetition failed: %s", r.Err)
		return
	}
	replayed, err := core.ReplayToHop(filepath.Join(dir, e.parsed.TrajLog), r.Hops, core.ReplayOptions{})
	if err != nil {
		res.addCheck(name, false, "ReplayToHop: %v", err)
		return
	}
	final, err := core.LoadCheckpoint(bytes.NewReader(r.ckpt))
	if err != nil {
		res.addCheck(name, false, "loading final checkpoint: %v", err)
		return
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, e.parsed.CheckpointFile))
	if err != nil {
		res.addCheck(name, false, "reading checkpoint file: %v", err)
		return
	}
	got, want := boxSHA(replayed.Box), boxSHA(final.Box)
	ok := got == want && replayed.Hops == final.Hops &&
		slices.Equal(replayed.Vacancies, final.Vacancies) && bytes.Equal(onDisk, r.ckpt)
	res.addCheck(name, ok, "%d hops replayed: lattice sha256 %.12s vs %.12s, file %d bytes", r.Hops, got, want, len(onDisk))
}

// boxSHA is the SHA-256 of a lattice's serialised form.
func boxSHA(box *lattice.Box) string {
	var blob bytes.Buffer
	if err := box.Save(&blob); err != nil {
		return "unserialisable: " + err.Error()
	}
	return sha256Hex(blob.Bytes())
}

// fastEAMTolerance bounds the incremental EAM evaluator's relative
// deviation from the exact one.
const fastEAMTolerance = 1e-9

// checkFastEAM compares the incremental EAM evaluator the engine uses
// with the exact reference evaluator on environments of the final
// state: every vacancy's, plus a seeded sample of other sites.
func (e *runEnv) checkFastEAM(res *childResult, image []byte) {
	const name = "eam_fast_vs_ref"
	ck, err := core.LoadCheckpoint(bytes.NewReader(image))
	if err != nil {
		res.addCheck(name, false, "loading final checkpoint: %v", err)
		return
	}
	tb := e.tables()
	worst := fastVsRef(tb, sampleVETs(tb, ck.Box, 24, e.seed))
	res.addCheck(name, worst <= fastEAMTolerance, "max relative error %.3g (limit %g)", worst, fastEAMTolerance)
}

// sampleVETs fills VETs centred on the box's vacancies (at most n of
// them) and on n further sites drawn from the seed, each treated as if a
// vacancy sat there — the evaluators assume a vacant centre.
func sampleVETs(tb *encoding.Tables, box *lattice.Box, n int, seed uint64) []encoding.VET {
	centres := lattice.Vacancies(box)
	if len(centres) > n {
		centres = centres[:n]
	}
	r := rng.New(seed ^ 0x5eed)
	for i := 0; i < n; i++ {
		centres = append(centres, box.SiteAt(r.Intn(box.NumSites())))
	}
	vets := make([]encoding.VET, len(centres))
	for i, c := range centres {
		vets[i] = tb.NewVET()
		tb.FillVET(vets[i], c, box.Get)
		vets[i][0] = lattice.Vacancy
	}
	return vets
}

// fastVsRef returns the largest relative difference between the fast
// and the exact EAM evaluator over the VETs' initial and final energies.
func fastVsRef(tb *encoding.Tables, vets []encoding.VET) float64 {
	pot := eam.New(eam.Default())
	fast, ref := eam.NewFastRegionEvaluator(pot, tb), eam.NewRegionEvaluator(pot, tb)
	rel := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	worst := 0.0
	for _, vet := range vets {
		// Evaluators mutate the VET while visiting final states (and
		// restore it); give each its own copy anyway.
		fi, ff, fv := fast.HopEnergies(append(encoding.VET(nil), vet...))
		ri, rf, rv := ref.HopEnergies(append(encoding.VET(nil), vet...))
		worst = math.Max(worst, rel(fi, ri))
		for k := 0; k < 8; k++ {
			if fv[k] != rv[k] {
				return math.Inf(1)
			}
			if fv[k] {
				worst = math.Max(worst, rel(ff[k], rf[k]))
			}
		}
	}
	return worst
}
