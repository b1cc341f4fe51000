package eam

import (
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/lattice"
)

// FastRegionEvaluator computes hop energies incrementally: the initial
// state's per-site (E_V, E_R) pairs are built once per vacancy system,
// and each of the 8 final states is evaluated by patching only the sites
// whose environment actually changes — the neighbours of the vacancy and
// of the hop target. This reduces the per-refresh work from
// 9·N_region·N_local pair evaluations to roughly N_region·N_local +
// 8·N_affected table lookups, a ~6–8× speedup with results equal to the
// exact evaluator to floating-point noise (~1e-12 eV).
//
// The TensorKMC paper evaluates all 1+N_f states in full on CPEs because
// the big-fusion operator makes full evaluation cheap on that hardware;
// on a scalar host the incremental path is the analogous optimisation.
// Both evaluators satisfy kmc.Model, and a dedicated ablation bench
// compares them.
type FastRegionEvaluator struct {
	*RegionEvaluator
	// scratch
	ev, er []float64
}

// NewFastRegionEvaluator builds the incremental evaluator on top of the
// exact one.
func NewFastRegionEvaluator(p *Potential, tb *encoding.Tables) *FastRegionEvaluator {
	return &FastRegionEvaluator{
		RegionEvaluator: NewRegionEvaluator(p, tb),
		ev:              make([]float64, tb.NRegion),
		er:              make([]float64, tb.NRegion),
	}
}

// HopEnergies implements kmc.Model incrementally.
func (f *FastRegionEvaluator) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	tb := f.Tb
	// Pass 1: exact per-site (E_V, E_R) of the initial state.
	for j := 0; j < tb.NRegion; j++ {
		if !vet[j].IsAtom() {
			f.ev[j], f.er[j] = 0, 0
			continue
		}
		f.ev[j], f.er[j] = f.SiteEVER(vet, j)
		initial += float64(0.5*f.ev[j]) + f.Pot.Embed(f.er[j])
	}
	// Pass 2: per final state, patch only what changes.
	nd := f.nDist
	for k := 0; k < 8; k++ {
		targetIdx := int(tb.NN1Index[k])
		mover := vet[targetIdx]
		if !mover.IsAtom() {
			continue
		}
		valid[k] = true
		e := initial
		base := int(mover) * nd
		// Tables.HopSites[k] holds the region sites (origin and target
		// apart, handled below) that see the swapped pair in different
		// shells; every other site's pair and density terms cancel
		// exactly.
		for _, a := range tb.HopSites[k] {
			s := vet[a.Site]
			if !s.IsAtom() {
				continue
			}
			dEV, dER := 0.0, 0.0
			sBase := int(s) * lattice.NumElements * nd
			if a.ShellOrigin >= 0 {
				// The origin gains the mover atom.
				dEV += f.pairTab[sBase+base+int(a.ShellOrigin)]
				dER += f.densTab[base+int(a.ShellOrigin)]
			}
			if a.ShellTarget >= 0 {
				// The target loses it.
				dEV -= f.pairTab[sBase+base+int(a.ShellTarget)]
				dER -= f.densTab[base+int(a.ShellTarget)]
			}
			if dEV == 0 && dER == 0 {
				continue
			}
			e += float64(0.5*dEV) + f.Pot.Embed(f.er[a.Site]+dER) - f.Pot.Embed(f.er[a.Site])
		}
		// The mover itself: its old energy (at the target site) is
		// replaced by its energy at the origin, whose neighbourhood is
		// the origin's with the target now vacant.
		var evM, erM float64
		moverBase := int(mover) * lattice.NumElements * nd
		for _, nb := range tb.Neighbors(0) {
			if int(nb.ID) == targetIdx {
				continue // the mover's old site is now the vacancy
			}
			o := vet[nb.ID]
			if !o.IsAtom() {
				continue
			}
			evM += f.pairTab[moverBase+int(o)*nd+int(nb.DistIndex)]
			erM += f.densTab[int(o)*nd+int(nb.DistIndex)]
		}
		eMoverNew := float64(0.5*evM) + f.Pot.Embed(erM)
		eMoverOld := float64(0.5*f.ev[targetIdx]) + f.Pot.Embed(f.er[targetIdx])
		final[k] = e + eMoverNew - eMoverOld
	}
	return initial, final, valid
}
