// Package train fits a neural network potential to a labelled dataset —
// the pipeline behind the paper's Fig. 7 parity results (energy MAE
// 2.9 meV/atom, R² = 0.998; force R² = 0.880).
//
// The regression target is the structure energy with per-element
// reference energies removed: a two-parameter least-squares fit of
// E ≈ n_Fe·E_Fe + n_Cu·E_Cu absorbs the cohesive baseline, and the
// networks learn the residual. Features are normalised channel-wise over
// the training set. Training minimises a weighted sum of the per-atom
// energy MSE and the force-component MSE with AdamW; force gradients flow
// through the network input gradient via double backprop
// (nnp.Network.DoubleBackward) and through the descriptor's analytic
// radial derivative.
package train

import (
	"fmt"
	"math"

	"tensorkmc/internal/dataset"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
)

// Options configures a training run.
type Options struct {
	// Sizes is the network architecture (input must equal the
	// descriptor dimension); defaults to nnp.StandardSizes.
	Sizes []int
	// Epochs over the training set.
	Epochs int
	// BatchStructures per optimiser step.
	BatchStructures int
	// LR is the Adam learning rate; WeightDecay the decoupled AdamW
	// weight decay. CosineDecay, if true, anneals the learning rate
	// from LR to LR/10 over the epochs with a half-cosine schedule.
	LR          float64
	WeightDecay float64
	CosineDecay bool
	// ForceWeight balances the force-MSE term against the energy term;
	// zero trains on energies only.
	ForceWeight float64
	// Seed drives initialisation and shuffling.
	Seed uint64
	// Progress, if non-nil, receives (epoch, trainMAEPerAtom) once per
	// epoch.
	Progress func(epoch int, maePerAtom float64)
}

// DefaultOptions returns a configuration that converges on the synthetic
// dataset in a few minutes of CPU time.
func DefaultOptions() Options {
	return Options{
		Sizes:           nnp.StandardSizes,
		Epochs:          200,
		BatchStructures: 32,
		LR:              2e-3,
		WeightDecay:     1e-4,
		ForceWeight:     0.1,
		CosineDecay:     true,
		Seed:            1,
	}
}

// precomputed holds the fixed per-structure tensors used every epoch.
type precomputed struct {
	feats      [][]float64 // per atom, concatenated per structure
	offsets    []int       // structure → first atom index
	nAtoms     []int
	target     []float64            // residual energy target per structure
	pairs      [][]feature.PairTerm // geometry is fixed; computed once
	totalAtoms int
}

// derivTable linearly interpolates the descriptor's radial derivative,
// avoiding per-epoch transcendental evaluations in the force loop.
type derivTable struct {
	step float64
	nd   int
	rows []float64 // bins × nd
}

func buildDerivTable(desc *feature.Descriptor) *derivTable {
	const step = 1e-3
	bins := int(desc.Rcut/step) + 2
	dt := &derivTable{step: step, nd: desc.NDim(), rows: make([]float64, bins*desc.NDim())}
	val := make([]float64, desc.NDim())
	der := make([]float64, desc.NDim())
	for b := 0; b < bins; b++ {
		r := float64(b) * step
		if r < 1e-6 {
			r = 1e-6
		}
		desc.EvalDeriv(r, val, der)
		copy(dt.rows[b*dt.nd:], der)
	}
	return dt
}

// row writes the interpolated derivative channels at distance r into out.
func (dt *derivTable) row(r float64, out []float64) {
	x := r / dt.step
	b := int(x)
	frac := x - float64(b)
	maxB := len(dt.rows)/dt.nd - 2
	if b > maxB {
		b, frac = maxB, 1
	}
	lo := dt.rows[b*dt.nd : (b+1)*dt.nd]
	hi := dt.rows[(b+1)*dt.nd : (b+2)*dt.nd]
	for c := 0; c < dt.nd; c++ {
		out[c] = lo[c] + float64(frac*(hi[c]-lo[c]))
	}
}

// Fit trains a potential on the training structures and returns it.
func Fit(structs []dataset.Structure, desc *feature.Descriptor, opt Options) (*nnp.Potential, error) {
	if len(structs) == 0 {
		return nil, fmt.Errorf("train: empty training set")
	}
	if opt.Sizes == nil {
		opt.Sizes = nnp.StandardSizes
	}
	if err := opt.validate(desc.Dim()); err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed)
	pot := nnp.NewPotential(desc, opt.Sizes, r)

	eFe, eCu := fitReferences(structs)
	pot.ERef = [lattice.NumElements]float64{eFe, eCu}

	pre := precompute(structs, desc, pot.ERef, opt.ForceWeight > 0)
	mean, std := channelStats(pre.feats, desc.Dim())
	pot.FeatMean, pot.FeatStd = mean, std

	opts := [lattice.NumElements]*nnp.Adam{}
	for e := range opts {
		opts[e] = nnp.NewAdam(opt.LR)
		opts[e].WeightDecay = opt.WeightDecay
	}

	tr := &trainer{
		pot:     pot,
		structs: structs,
		pre:     pre,
		opt:     opt,
		opts:    opts,
	}
	if opt.ForceWeight > 0 {
		tr.dt = buildDerivTable(desc)
		tr.gRaw = make([][]float64, len(pre.feats))
		tr.uRaw = make([][]float64, len(pre.feats))
		for i := range tr.gRaw {
			tr.gRaw[i] = make([]float64, desc.Dim())
			tr.uRaw[i] = make([]float64, desc.Dim())
		}
	}

	order := make([]int, len(structs))
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		if opt.CosineDecay {
			frac := float64(epoch) / float64(opt.Epochs)
			lr := opt.LR * (0.1 + float64(0.45*(1+math.Cos(math.Pi*frac))))
			for e := range opts {
				opts[e].LR = lr
			}
		}
		r.Perm(order)
		var absErr float64
		var nAtomsTot int
		for lo := 0; lo < len(order); lo += opt.BatchStructures {
			hi := lo + opt.BatchStructures
			if hi > len(order) {
				hi = len(order)
			}
			ae, na := tr.step(order[lo:hi])
			absErr += ae
			nAtomsTot += na
		}
		if opt.Progress != nil {
			opt.Progress(epoch, absErr/float64(nAtomsTot))
		}
	}
	return pot, nil
}

// validate refuses options Fit cannot train with, naming the bad value,
// before any network is built: the nnp constructors panic on a bad size,
// and a non-finite rate or weight trains a potential Load refuses. NaN
// fails every ordered comparison, so each test is written to fail on it.
func (opt Options) validate(dim int) error {
	switch {
	case opt.Epochs <= 0:
		return fmt.Errorf("train: %d epochs, want > 0", opt.Epochs)
	case opt.BatchStructures <= 0:
		return fmt.Errorf("train: %d structures per batch, want > 0", opt.BatchStructures)
	case !(opt.LR > 0) || math.IsInf(opt.LR, 1):
		return fmt.Errorf("train: learning rate %v, want finite and > 0", opt.LR)
	case !(opt.WeightDecay >= 0) || math.IsInf(opt.WeightDecay, 1):
		return fmt.Errorf("train: weight decay %v, want finite and >= 0", opt.WeightDecay)
	case !(opt.ForceWeight >= 0) || math.IsInf(opt.ForceWeight, 1):
		return fmt.Errorf("train: force weight %v, want finite and >= 0", opt.ForceWeight)
	case len(opt.Sizes) < 2:
		return fmt.Errorf("train: layer sizes %v, want at least an input and an output", opt.Sizes)
	}
	for _, s := range opt.Sizes {
		if s <= 0 {
			return fmt.Errorf("train: layer size %d in %v, want > 0", s, opt.Sizes)
		}
	}
	if opt.Sizes[0] != dim {
		return fmt.Errorf("train: input size %d, want the descriptor dimension %d", opt.Sizes[0], dim)
	}
	if out := opt.Sizes[len(opt.Sizes)-1]; out != 1 {
		return fmt.Errorf("train: output size %d, want one output (the atomic energy)", out)
	}
	return nil
}

// fitReferences solves the 2×2 normal equations of E ≈ n_Fe·x + n_Cu·y.
func fitReferences(structs []dataset.Structure) (eFe, eCu float64) {
	var a11, a12, a22, b1, b2 float64
	for i := range structs {
		n := structs[i].CountElements()
		nf, nc := float64(n[lattice.Fe]), float64(n[lattice.Cu])
		a11 += float64(nf * nf)
		a12 += float64(nf * nc)
		a22 += float64(nc * nc)
		b1 += float64(nf * structs[i].Energy)
		b2 += float64(nc * structs[i].Energy)
	}
	det := float64(a11*a22) - float64(a12*a12)
	if math.Abs(det) < 1e-12 {
		// Degenerate (e.g. single-element dataset): fall back to mean
		// per-atom energy for both elements.
		var e, n float64
		for i := range structs {
			e += structs[i].Energy
			n += float64(structs[i].NumAtoms())
		}
		if n == 0 {
			return 0, 0
		}
		return e / n, e / n
	}
	return (float64(b1*a22) - float64(b2*a12)) / det, (float64(a11*b2) - float64(a12*b1)) / det
}

func precompute(structs []dataset.Structure, desc *feature.Descriptor, eref [lattice.NumElements]float64, withPairs bool) *precomputed {
	pre := &precomputed{}
	for i := range structs {
		s := &structs[i]
		pre.offsets = append(pre.offsets, len(pre.feats))
		pre.nAtoms = append(pre.nAtoms, s.NumAtoms())
		pre.totalAtoms += s.NumAtoms()
		feats := desc.ComputeStructure(s.Pos, s.Spec, s.Cell)
		pre.feats = append(pre.feats, feats...)
		n := s.CountElements()
		nFe, nCu := float64(n[lattice.Fe]), float64(n[lattice.Cu])
		pre.target = append(pre.target, s.Energy-float64(nFe*eref[lattice.Fe])-float64(nCu*eref[lattice.Cu]))
		if withPairs {
			pre.pairs = append(pre.pairs, desc.Pairs(s.Pos, s.Cell))
		}
	}
	return pre
}

func channelStats(feats [][]float64, dim int) (mean, std []float64) {
	mean = make([]float64, dim)
	std = make([]float64, dim)
	n := float64(len(feats))
	if n == 0 {
		for c := range std {
			std[c] = 1
		}
		return
	}
	for _, f := range feats {
		for c, v := range f {
			mean[c] += v
		}
	}
	for c := range mean {
		mean[c] /= n
	}
	for _, f := range feats {
		for c, v := range f {
			d := v - mean[c]
			std[c] += float64(d * d)
		}
	}
	for c := range std {
		std[c] = math.Sqrt(std[c] / n)
		if std[c] < 1e-8 {
			std[c] = 1
		}
	}
	return
}

// trainer carries the per-run mutable state of the optimisation loop.
type trainer struct {
	pot     *nnp.Potential
	structs []dataset.Structure
	pre     *precomputed
	opt     Options
	opts    [lattice.NumElements]*nnp.Adam
	dt      *derivTable
	// gRaw/uRaw are per-global-atom input gradients and co-gradients in
	// raw (unnormalised) feature space; reused across batches.
	gRaw [][]float64
	uRaw [][]float64
}

// step runs one optimiser update over the given structure indices and
// returns the summed per-structure absolute energy error and atom count.
func (tr *trainer) step(batch []int) (absErr float64, nAtoms int) {
	pot, pre := tr.pot, tr.pre
	dim := pot.Desc.Dim()
	type gather struct {
		rows      []int // global atom index
		structRow []int // position in `batch`
	}
	var g [lattice.NumElements]gather
	for bi, si := range batch {
		s := &tr.structs[si]
		off := pre.offsets[si]
		for ai, sp := range s.Spec {
			if !sp.IsAtom() {
				continue
			}
			g[sp].rows = append(g[sp].rows, off+ai)
			g[sp].structRow = append(g[sp].structRow, bi)
		}
	}
	pred := make([]float64, len(batch))
	type taped struct {
		out     nnp.Matrix
		tape    *nnp.Tape
		preacts []nnp.Matrix
	}
	var tapes [lattice.NumElements]taped
	withForces := tr.opt.ForceWeight > 0
	for e := 0; e < lattice.NumElements; e++ {
		if len(g[e].rows) == 0 {
			continue
		}
		x := nnp.NewMatrix(len(g[e].rows), dim)
		for r, row := range g[e].rows {
			raw := pre.feats[row]
			dst := x.Row(r)
			for c := 0; c < dim; c++ {
				dst[c] = (raw[c] - pot.FeatMean[c]) / pot.FeatStd[c]
			}
		}
		out, tape := pot.Nets[e].ForwardTape(x)
		tapes[e] = taped{out: out, tape: tape}
		for r, bi := range g[e].structRow {
			pred[bi] += out.Data[r]
		}
		if withForces {
			inGrad, preacts := pot.Nets[e].EnergyGradients(tape)
			tapes[e].preacts = preacts
			for r, row := range g[e].rows {
				src := inGrad.Row(r)
				dst := tr.gRaw[row]
				for c := 0; c < dim; c++ {
					dst[c] = src[c] / pot.FeatStd[c]
				}
			}
		}
	}
	// Energy term: loss_E = Σ_struct ((pred−target)/n_atoms)² / |batch|.
	eGrad := make([]float64, len(batch))
	for bi, si := range batch {
		n := float64(pre.nAtoms[si])
		diff := pred[bi] - pre.target[si]
		absErr += math.Abs(diff)
		nAtoms += pre.nAtoms[si]
		eGrad[bi] = 2 * diff / (n * n) / float64(len(batch))
	}
	if withForces {
		tr.accumulateForceCograds(batch)
	}
	for e := 0; e < lattice.NumElements; e++ {
		if len(g[e].rows) == 0 {
			continue
		}
		outGrad := nnp.NewMatrix(tapes[e].out.Rows, 1)
		for r, bi := range g[e].structRow {
			outGrad.Data[r] = eGrad[bi]
		}
		_, grads := pot.Nets[e].Backward(tapes[e].tape, outGrad)
		if withForces {
			u := nnp.NewMatrix(len(g[e].rows), dim)
			for r, row := range g[e].rows {
				src := tr.uRaw[row]
				dst := u.Row(r)
				for c := 0; c < dim; c++ {
					// Convert the raw-space co-gradient to normalised
					// space (chain rule through x̂ = (x−μ)/σ).
					dst[c] = src[c] / pot.FeatStd[c]
				}
			}
			fGrads := pot.Nets[e].DoubleBackward(tapes[e].tape, tapes[e].preacts, u)
			for l := range grads {
				for i := range grads[l].W.Data {
					grads[l].W.Data[i] += fGrads[l].W.Data[i]
				}
			}
		}
		tr.opts[e].Step(pot.Nets[e], grads)
	}
	return absErr, nAtoms
}

// accumulateForceCograds predicts forces for each batch structure from
// the current gRaw, and fills uRaw = ∂loss_F/∂gRaw via the pair list.
// loss_F = ForceWeight/(3·N_batch_atoms) · Σ |F_pred − F_ref|².
func (tr *trainer) accumulateForceCograds(batch []int) {
	pot, pre := tr.pot, tr.pre
	nd := pot.Desc.NDim()
	der := make([]float64, nd)
	var batchAtoms int
	for _, si := range batch {
		batchAtoms += pre.nAtoms[si]
	}
	scale := tr.opt.ForceWeight / (3 * float64(batchAtoms))
	for _, si := range batch {
		s := &tr.structs[si]
		off := pre.offsets[si]
		for ai := range s.Spec {
			for c := range tr.uRaw[off+ai] {
				tr.uRaw[off+ai][c] = 0
			}
		}
		// Predicted forces from current input gradients.
		forces := make([][3]float64, s.NumAtoms())
		for _, p := range pre.pairs[si] {
			if !s.Spec[p.I].IsAtom() || !s.Spec[p.J].IsAtom() {
				continue
			}
			tr.dt.row(p.R, der)
			baseI := int(s.Spec[p.J]) * nd
			baseJ := int(s.Spec[p.I]) * nd
			gI := tr.gRaw[off+p.I]
			gJ := tr.gRaw[off+p.J]
			var dEdr float64
			for c := 0; c < nd; c++ {
				dEdr += float64(gI[baseI+c]*der[c]) + float64(gJ[baseJ+c]*der[c])
			}
			for ax := 0; ax < 3; ax++ {
				forces[p.I][ax] -= float64(dEdr * p.Unit[ax])
				forces[p.J][ax] += float64(dEdr * p.Unit[ax])
			}
		}
		// Co-gradients: ∂loss/∂dEdr per pair, pushed onto both atoms'
		// feature-gradient channels.
		for _, p := range pre.pairs[si] {
			if !s.Spec[p.I].IsAtom() || !s.Spec[p.J].IsAtom() {
				continue
			}
			tr.dt.row(p.R, der)
			var dLddEdr float64
			for ax := 0; ax < 3; ax++ {
				dI := forces[p.I][ax] - s.Forces[p.I][ax]
				dJ := forces[p.J][ax] - s.Forces[p.J][ax]
				dLddEdr += float64(2 * scale * (dJ - dI) * p.Unit[ax])
			}
			baseI := int(s.Spec[p.J]) * nd
			baseJ := int(s.Spec[p.I]) * nd
			uI := tr.uRaw[off+p.I]
			uJ := tr.uRaw[off+p.J]
			for c := 0; c < nd; c++ {
				uI[baseI+c] += float64(dLddEdr * der[c])
				uJ[baseJ+c] += float64(dLddEdr * der[c])
			}
		}
	}
}

// Metrics summarises a potential's accuracy on a dataset.
type Metrics struct {
	// Per-atom energy error statistics (eV/atom) and parity R².
	EnergyMAE  float64
	EnergyRMSE float64
	EnergyR2   float64
	// Force component statistics (eV/Å).
	ForceMAE float64
	ForceR2  float64
}

// Evaluate computes Fig. 7-style parity metrics of pot on structs.
func Evaluate(pot *nnp.Potential, structs []dataset.Structure) Metrics {
	var ePred, eRef []float64
	var fPred, fRef []float64
	for i := range structs {
		s := &structs[i]
		n := float64(s.NumAtoms())
		ePred = append(ePred, pot.StructureEnergy(s.Pos, s.Spec, s.Cell)/n)
		eRef = append(eRef, s.Energy/n)
		pf := pot.StructureForces(s.Pos, s.Spec, s.Cell)
		for ai := range pf {
			for ax := 0; ax < 3; ax++ {
				fPred = append(fPred, pf[ai][ax])
				fRef = append(fRef, s.Forces[ai][ax])
			}
		}
	}
	return Metrics{
		EnergyMAE:  dataset.MAE(ePred, eRef),
		EnergyRMSE: dataset.RMSE(ePred, eRef),
		EnergyR2:   dataset.R2(ePred, eRef),
		ForceMAE:   dataset.MAE(fPred, fRef),
		ForceR2:    dataset.R2(fPred, fRef),
	}
}
