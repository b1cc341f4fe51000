package nnp

import (
	"fmt"
	"math"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
)

// Potential is the trained neural network potential: one energy head per
// chemical element (TensorAlloy-style), a shared feature descriptor, and
// the normalisation/reference constants fixed at training time.
//
// The per-atom energy of an atom of element e with raw feature vector x is
//
//	E_atom = Net_e((x − FeatMean)/FeatStd) + ERef_e
//
// and a configuration's energy is the sum over its atoms. Vacancies carry
// no energy.
type Potential struct {
	Desc *feature.Descriptor
	Nets [lattice.NumElements]*Network
	// ERef is the per-element reference (cohesive-scale) energy added
	// back to the network output; it centres the regression targets.
	ERef [lattice.NumElements]float64
	// FeatMean/FeatStd normalise raw features channel-wise. Nil means
	// identity (used by freshly initialised potentials and tests).
	FeatMean []float64
	FeatStd  []float64
}

// NewPotential builds an untrained potential with independently
// initialised per-element networks of the given layer sizes. sizes[0]
// must equal the descriptor dimension.
func NewPotential(desc *feature.Descriptor, sizes []int, r *rng.Stream) *Potential {
	if sizes[0] != desc.Dim() {
		panic(fmt.Sprintf("nnp: network input %d != descriptor dim %d", sizes[0], desc.Dim()))
	}
	if sizes[len(sizes)-1] != 1 {
		panic("nnp: energy head must have one output")
	}
	p := &Potential{Desc: desc}
	for e := range p.Nets {
		p.Nets[e] = NewNetwork(sizes, r.Split(uint64(e)))
	}
	return p
}

// normalizeInto writes the normalised feature vector into dst.
func (p *Potential) normalizeInto(dst, raw []float64) {
	if p.FeatMean == nil {
		copy(dst, raw)
		return
	}
	for c, v := range raw {
		dst[c] = (v - p.FeatMean[c]) / p.FeatStd[c]
	}
}

// AtomEnergy evaluates one atom's energy from its raw feature vector.
func (p *Potential) AtomEnergy(s lattice.Species, raw []float64) float64 {
	if !s.IsAtom() {
		return 0
	}
	x := NewMatrix(1, p.Desc.Dim())
	p.normalizeInto(x.Data, raw)
	out := p.Nets[s].Forward(x)
	return out.Data[0] + p.ERef[s]
}

// Scratch holds the reusable buffers of region- and hop-energy
// evaluation so the KMC hot loop does not allocate. One Scratch per
// goroutine.
type Scratch struct {
	feats []float64 // site feature vector (Dim)
	x     Matrix    // per-element batch input (NRegion rows, padded to a multiple of four)

	nn1Shell int // the shell in which the origin sees its 1NN sites

	// Hop kernel state, valid for the duration of one HopEnergies call.
	cnt     []uint16  // per-site (element, shell) neighbour tallies, NRegion × NEl·nDist
	tally   []uint16  // one site's tally, adjusted for the hop being evaluated
	siteE   []float64 // per-site network output in the initial state
	stateE  []float64 // the same, patched for the final state being summed
	out     Matrix    // network outputs of the rows in x
	rowSite []int32   // region site of each row in x
	simd    bool      // stage rows with stageRowAVX2 (Potential.stageSIMD)
	blk     BlockScratch
}

// quadRows rounds a row count up to whole four-row quads.
func quadRows(n int) int { return (n + 3) &^ 3 }

// NewScratch sizes a scratch for the given tables/potential pair.
func (p *Potential) NewScratch(tb *encoding.Tables) *Scratch {
	dim := p.Desc.Dim()
	nc := p.Desc.NEl * len(tb.Distances)
	s := &Scratch{
		feats:   make([]float64, dim),
		x:       NewMatrix(quadRows(tb.NRegion), dim),
		cnt:     make([]uint16, tb.NRegion*nc),
		tally:   make([]uint16, nc),
		siteE:   make([]float64, tb.NRegion),
		stateE:  make([]float64, tb.NRegion),
		out:     NewMatrix(quadRows(tb.NRegion), 1),
		rowSite: make([]int32, tb.NRegion),
	}
	for _, nb := range tb.Neighbors(0) {
		if nb.ID == tb.NN1Index[0] {
			s.nn1Shell = int(nb.DistIndex)
		}
	}
	return s
}

// RegionEnergy returns the total energy of the jumping region of a
// vacancy system in state vet: the sum of per-atom energies over region
// sites. Outer (N_out) sites only shape the features of region sites;
// their own energies are invariant under any hop and therefore excluded
// (Sec. 3.1). The evaluation batches atoms per element so each element
// head runs one matmul — the structure the big-fusion operator executes
// on CPEs.
func (p *Potential) RegionEnergy(tb *encoding.Tables, tab *feature.Table, vet encoding.VET, s *Scratch) float64 {
	if s == nil {
		s = p.NewScratch(tb)
	}
	dim := p.Desc.Dim()
	total := 0.0
	for e := 0; e < lattice.NumElements; e++ {
		rows := 0
		for i := 0; i < tb.NRegion; i++ {
			if vet[i] != lattice.Species(e) {
				continue
			}
			feature.ComputeSite(tb, tab, vet, i, s.feats)
			p.normalizeInto(s.x.Data[rows*dim:(rows+1)*dim], s.feats)
			rows++
		}
		if rows == 0 {
			continue
		}
		batch := Matrix{Rows: rows, Cols: dim, Data: s.x.Data[:rows*dim]}
		out := p.Nets[e].Forward(batch)
		for i := 0; i < rows; i++ {
			total += out.Data[i]
		}
		total += float64(float64(rows) * p.ERef[e])
	}
	return total
}

// HopEnergies computes the initial-state region energy and the energy of
// each of the 8 candidate final states, the 1+N_f evaluation of Sec. 3.4.
// Final states whose target site is not an atom (another vacancy) are
// reported as NaN-free: valid[k] is false and final[k] is 0. rows is the
// number of feature rows forwarded through the network heads. vet is only
// read.
//
// The evaluation is incremental and bit-identical to nine RegionEnergy
// passes. The initial state tallies every atom site's per-(element,
// shell) neighbour counts, builds each row from its tally
// (feature.Table.RowFromCounts), forwards the rows and keeps the per-site
// outputs. Final state k moves one atom from the target to the origin, so
// only the Tables.HopSites[k] atoms — whose tallies change by ±1 in the
// mover's element block — and the mover itself are forwarded again; every
// other site's initial output is reused. Three facts make the bits equal:
// tallies are integers, so an adjusted tally equals a recounted one and
// gives the same row; the block forward is row-independent
// (ForwardBlockInto), so a row's output does not depend on its batch; and
// the per-site outputs are added in RegionEnergy's order — element
// ascending, site ascending, then rows·ERef.
//
// Every batch is forwarded padded to whole four-row quads, so the AVX2
// kernels take all of it; the padding rows hold stale inputs, their
// outputs are never read, and rows does not count them.
//
// A non-finite region energy can only come from a corrupted network (a
// bit-flipped weight) or scrambled features; it is trapped here with a
// typed *fault.CorruptionError panic so the supervisor sees a
// non-retryable failure instead of a silently poisoned trajectory. The
// cost is one comparison per evaluated state, dwarfed by the MLP
// forward pass that produced the value.
func (p *Potential) HopEnergies(tb *encoding.Tables, tab *feature.Table, vet encoding.VET, s *Scratch) (initial float64, final [8]float64, valid [8]bool, rows int) {
	if s == nil {
		s = p.NewScratch(tb)
	}
	nc := len(s.tally) // tallies per site: NEl × nDist
	nDist := nc / p.Desc.NEl
	s.simd = p.stageSIMD(tab, nc)

	// Tally every site that can own a row: the atoms, and the origin,
	// where each final state puts its mover.
	for i := 0; i < tb.NRegion; i++ {
		if i != 0 && !vet[i].IsAtom() {
			continue
		}
		cnt := s.cnt[i*nc : (i+1)*nc]
		for j := range cnt {
			cnt[j] = 0
		}
		for _, nb := range tb.Neighbors(i) {
			if sp := vet[nb.ID]; sp.IsAtom() {
				cnt[int(sp)*nDist+int(nb.DistIndex)]++
			}
		}
	}

	var elemRows [lattice.NumElements]int
	for e := 0; e < lattice.NumElements; e++ {
		n := 0
		for i := 0; i < tb.NRegion; i++ {
			if vet[i] == lattice.Species(e) {
				s.stageRow(p, tab, n, i, s.cnt[i*nc:(i+1)*nc])
				n++
			}
		}
		p.Nets[e].ForwardBlockInto(s.x, s.out, 0, quadRows(n), &s.blk)
		for r := 0; r < n; r++ {
			s.siteE[s.rowSite[r]] = s.out.Data[r]
			initial += s.out.Data[r]
		}
		if n > 0 {
			initial += float64(float64(n) * p.ERef[e])
		}
		elemRows[e] = n
		rows += n
	}
	checkFiniteEnergy("initial", initial)

	for k := 0; k < 8; k++ {
		target := tb.NN1Index[k]
		mover := vet[target]
		if !mover.IsAtom() {
			continue
		}
		mBase := int(mover) * nDist
		copy(s.stateE, s.siteE)
		for e := 0; e < lattice.NumElements; e++ {
			n := 0
			if lattice.Species(e) == mover {
				// The mover at the origin: the origin's tally without
				// the atom that left the target.
				cnt := s.hopTally(0, nc)
				cnt[mBase+s.nn1Shell]--
				s.stageRow(p, tab, n, 0, cnt)
				n++
			}
			for _, h := range tb.HopSites[k] {
				if vet[h.Site] != lattice.Species(e) {
					continue
				}
				cnt := s.hopTally(int(h.Site), nc)
				if h.ShellOrigin >= 0 {
					cnt[mBase+int(h.ShellOrigin)]++
				}
				if h.ShellTarget >= 0 {
					cnt[mBase+int(h.ShellTarget)]--
				}
				s.stageRow(p, tab, n, int(h.Site), cnt)
				n++
			}
			p.Nets[e].ForwardBlockInto(s.x, s.out, 0, quadRows(n), &s.blk)
			for r := 0; r < n; r++ {
				s.stateE[s.rowSite[r]] = s.out.Data[r]
			}
			rows += n
		}
		// RegionEnergy's sum over the final state: the origin now holds
		// the mover and sorts first in its element, the target is empty.
		total := 0.0
		for e := 0; e < lattice.NumElements; e++ {
			if lattice.Species(e) == mover {
				total += s.stateE[0]
			}
			for i := 1; i < tb.NRegion; i++ {
				if vet[i] == lattice.Species(e) && int32(i) != target {
					total += s.stateE[i]
				}
			}
			if elemRows[e] > 0 {
				total += float64(float64(elemRows[e]) * p.ERef[e])
			}
		}
		checkFiniteEnergy("final", total)
		final[k] = total
		valid[k] = true
	}
	return initial, final, valid, rows
}

// hopTally returns a copy of region site i's initial-state tally for a
// final state to adjust; it is valid until the next call.
func (s *Scratch) hopTally(i, nc int) []uint16 {
	copy(s.tally, s.cnt[i*nc:(i+1)*nc])
	return s.tally
}

// stageRow builds row r of the batch in s.x for region site i from its
// tally.
func (s *Scratch) stageRow(p *Potential, tab *feature.Table, r, i int, cnt []uint16) {
	p.stageInto(s.x.Row(r), tab, cnt, s.simd)
	s.rowSite[r] = int32(i)
}

// stageInto writes the normalised feature row of a site whose tally is cnt
// into row: RowFromCounts, then normalizeInto in place — the definition —
// or, with simd, stageRowAVX2, which does both in one pass with the same
// bits.
func (p *Potential) stageInto(row []float64, tab *feature.Table, cnt []uint16, simd bool) {
	if simd {
		stageRowAVX2(row, cnt, tab.Values(), p.FeatMean, p.FeatStd)
		return
	}
	tab.RowFromCounts(cnt, row)
	p.normalizeInto(row, row)
}

// stageChannels is the element-block width stageRowAVX2 holds in eight YMM
// registers: the paper's 32 (p, q) sets.
const stageChannels = 32

// stageSIMD reports whether stageInto may build p's rows from tab and
// tallies of length nc with stageRowAVX2: the host has AVX2, p has a
// normalisation, the table has 32 channels per element and every slice
// the kernel reads without bounds checks is long enough.
func (p *Potential) stageSIMD(tab *feature.Table, nc int) bool {
	d := tab.Desc()
	dim := p.Desc.Dim()
	return useAVX2 && p.FeatMean != nil && d.NDim() == stageChannels && d.Dim() == dim &&
		len(p.FeatMean) >= dim && len(p.FeatStd) >= dim &&
		len(tab.Values()) > 0 && nc >= d.NEl*len(tab.Values())/stageChannels
}

// checkFiniteEnergy is the NNP hot-path tripwire.
func checkFiniteEnergy(state string, e float64) {
	if math.IsNaN(e) || math.IsInf(e, 0) {
		panic(&fault.CorruptionError{
			Subsystem: "nnp",
			Detail:    fmt.Sprintf("%s-state region energy is %v", state, e),
		})
	}
}

// StructureEnergy evaluates the total energy of a continuous periodic
// structure (the training-time path).
func (p *Potential) StructureEnergy(pos [][3]float64, spec []lattice.Species, cell [3]float64) float64 {
	feats := p.Desc.ComputeStructure(pos, spec, cell)
	total := 0.0
	for i, s := range spec {
		if s.IsAtom() {
			total += p.AtomEnergy(s, feats[i])
		}
	}
	return total
}

// StructureForces returns the analytic forces −∂E/∂x on every atom of a
// continuous structure, chaining the network input gradients through the
// descriptor derivative.
func (p *Potential) StructureForces(pos [][3]float64, spec []lattice.Species, cell [3]float64) [][3]float64 {
	feats := p.Desc.ComputeStructure(pos, spec, cell)
	dim := p.Desc.Dim()
	featGrad := make([][]float64, len(pos))
	for i := range featGrad {
		featGrad[i] = make([]float64, dim)
	}
	for e := 0; e < lattice.NumElements; e++ {
		var idx []int
		for i, s := range spec {
			if s == lattice.Species(e) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		x := NewMatrix(len(idx), dim)
		for r, i := range idx {
			p.normalizeInto(x.Row(r), feats[i])
		}
		out, tape := p.Nets[e].ForwardTape(x)
		ones := NewMatrix(out.Rows, 1)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		inGrad, _ := p.Nets[e].Backward(tape, ones)
		for r, i := range idx {
			g := inGrad.Row(r)
			for c := 0; c < dim; c++ {
				// Chain through the normalisation: ∂x̂/∂x = 1/std.
				if p.FeatStd != nil {
					featGrad[i][c] = g[c] / p.FeatStd[c]
				} else {
					featGrad[i][c] = g[c]
				}
			}
		}
	}
	return p.Desc.ComputeForces(pos, spec, cell, featGrad)
}
