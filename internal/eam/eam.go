// Package eam implements an analytic embedded-atom-method (EAM) potential
// for the Fe–Cu alloy system. It plays two roles in this reproduction:
//
//  1. Synthetic ab-initio oracle. The paper labels its 540 NNP training
//     structures with FHI-aims DFT energies and forces; DFT is not
//     available here, so this potential generates the reference labels
//     instead. The NNP training pipeline (features → MLP → regression →
//     parity metrics, Fig. 7) is exercised unchanged; only the label
//     source differs (documented in DESIGN.md).
//  2. OpenKMC-era baseline potential. The paper's Table 1 describes the
//     per-atom E_V (pair) and E_R (electron density) arrays that OpenKMC
//     stores for its EAM energy path, with E(i) = ½·E_V[i] + F(E_R[i])
//     (Eq. 7). The cache-all baseline engine uses this package for those
//     quantities.
//
// Functional form: a Morse pair term with a smooth cosine cutoff plus a
// Finnis–Sinclair square-root embedding of an exponential density,
//
//	E = Σ_i [ ½ Σ_j φ_{t_i t_j}(r_ij) + F(ρ_i) ],  F(ρ) = −A·√ρ,
//	φ_ab(r) = ε_ab (e^{−2α(r−r₀)} − 2 e^{−α(r−r₀)}) · fc(r),
//	ρ_i = Σ_j ψ_{t_j}(r_ij),  ψ_b(r) = c_b e^{−β(r−r₀)} · fc(r).
//
// The default parameters are tuned so that Cu–Cu bonds in the Fe matrix
// are energetically favourable (2·ε_FeCu < ε_FeFe + ε_CuCu), driving the
// Cu precipitation the paper's application section reproduces, while hop
// energy changes stay small enough that migration barriers (Eq. 2) remain
// positive.
package eam

import (
	"math"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
)

// Params are the analytic potential's parameters. Epsilon is indexed by
// the two bond elements; C by the contributing element.
type Params struct {
	// Epsilon[a][b] is the Morse well depth of an a–b bond in eV.
	Epsilon [lattice.NumElements][lattice.NumElements]float64
	// R0 is the Morse equilibrium distance (Å), Alpha its inverse width
	// (1/Å).
	R0    float64
	Alpha float64
	// A scales the embedding F(ρ) = −A√ρ (eV); C and Beta shape the
	// exponential density.
	A    float64
	C    [lattice.NumElements]float64
	Beta float64
	// RIn and RCut bound the smooth cutoff window (Å).
	RIn  float64
	RCut float64
}

// Default returns the tuned Fe–Cu parameter set used throughout the
// reproduction.
func Default() Params {
	p := Params{
		R0:    2.485, // bcc Fe 1NN distance at a = 2.87 Å
		Alpha: 1.40,
		A:     0.60,
		Beta:  1.80,
		RIn:   5.0,
		RCut:  6.5,
	}
	p.Epsilon[lattice.Fe][lattice.Fe] = 0.40
	p.Epsilon[lattice.Cu][lattice.Cu] = 0.45
	p.Epsilon[lattice.Fe][lattice.Cu] = 0.35
	p.Epsilon[lattice.Cu][lattice.Fe] = 0.35
	p.C[lattice.Fe] = 1.00
	p.C[lattice.Cu] = 0.90
	return p
}

// Potential evaluates the analytic EAM energy surface.
type Potential struct{ P Params }

// New constructs a potential; zero-valued RCut panics.
func New(p Params) *Potential {
	if p.RCut <= 0 || p.RIn <= 0 || p.RIn >= p.RCut {
		panic("eam: invalid cutoff window")
	}
	return &Potential{P: p}
}

// fc is the smooth cutoff: 1 below RIn, cosine-tapered to 0 at RCut.
func (p *Potential) fc(r float64) float64 {
	switch {
	case r <= p.P.RIn:
		return 1
	case r >= p.P.RCut:
		return 0
	default:
		x := (r - p.P.RIn) / (p.P.RCut - p.P.RIn)
		return 0.5 * (math.Cos(math.Pi*x) + 1)
	}
}

// fcDeriv is dfc/dr.
func (p *Potential) fcDeriv(r float64) float64 {
	if r <= p.P.RIn || r >= p.P.RCut {
		return 0
	}
	w := p.P.RCut - p.P.RIn
	x := (r - p.P.RIn) / w
	return -0.5 * math.Pi / w * math.Sin(math.Pi*x)
}

// Pair returns φ_ab(r) in eV.
func (p *Potential) Pair(a, b lattice.Species, r float64) float64 {
	if r >= p.P.RCut {
		return 0
	}
	e := math.Exp(-p.P.Alpha * (r - p.P.R0))
	return p.P.Epsilon[a][b] * (float64(e*e) - float64(2*e)) * p.fc(r)
}

// PairDeriv returns dφ_ab/dr.
func (p *Potential) PairDeriv(a, b lattice.Species, r float64) float64 {
	if r >= p.P.RCut {
		return 0
	}
	e := math.Exp(-p.P.Alpha * (r - p.P.R0))
	morse := float64(e*e) - float64(2*e)
	dmorse := -p.P.Alpha * (float64(2*e*e) - float64(2*e))
	return p.P.Epsilon[a][b] * (float64(dmorse*p.fc(r)) + float64(morse*p.fcDeriv(r)))
}

// Density returns ψ_b(r), the electron-density contribution of an atom of
// element b at distance r.
func (p *Potential) Density(b lattice.Species, r float64) float64 {
	if r >= p.P.RCut {
		return 0
	}
	return p.P.C[b] * math.Exp(-p.P.Beta*(r-p.P.R0)) * p.fc(r)
}

// DensityDeriv returns dψ_b/dr.
func (p *Potential) DensityDeriv(b lattice.Species, r float64) float64 {
	if r >= p.P.RCut {
		return 0
	}
	e := p.P.C[b] * math.Exp(-p.P.Beta*(r-p.P.R0))
	return e * (float64(-p.P.Beta*p.fc(r)) + p.fcDeriv(r))
}

// Embed returns F(ρ) = −A√ρ.
func (p *Potential) Embed(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	return -p.P.A * math.Sqrt(rho)
}

// EmbedDeriv returns dF/dρ.
func (p *Potential) EmbedDeriv(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	return -0.5 * p.P.A / math.Sqrt(rho)
}

// StructureEnergy evaluates the total energy of a periodic continuous
// structure (the synthetic-DFT labelling path).
func (p *Potential) StructureEnergy(pos [][3]float64, spec []lattice.Species, cell [3]float64) float64 {
	pairE := 0.0
	rho := make([]float64, len(pos))
	for _, pr := range feature.Pairs(pos, cell, p.P.RCut) {
		si, sj := spec[pr.I], spec[pr.J]
		if !si.IsAtom() || !sj.IsAtom() {
			continue
		}
		pairE += p.Pair(si, sj, pr.R)
		rho[pr.I] += p.Density(sj, pr.R)
		rho[pr.J] += p.Density(si, pr.R)
	}
	total := pairE
	for i, s := range spec {
		if s.IsAtom() {
			total += p.Embed(rho[i])
		}
	}
	return total
}

// StructureForces returns the analytic forces −∂E/∂x.
func (p *Potential) StructureForces(pos [][3]float64, spec []lattice.Species, cell [3]float64) [][3]float64 {
	pairs := feature.Pairs(pos, cell, p.P.RCut)
	rho := make([]float64, len(pos))
	for _, pr := range pairs {
		si, sj := spec[pr.I], spec[pr.J]
		if !si.IsAtom() || !sj.IsAtom() {
			continue
		}
		rho[pr.I] += p.Density(sj, pr.R)
		rho[pr.J] += p.Density(si, pr.R)
	}
	forces := make([][3]float64, len(pos))
	for _, pr := range pairs {
		si, sj := spec[pr.I], spec[pr.J]
		if !si.IsAtom() || !sj.IsAtom() {
			continue
		}
		dEdr := p.PairDeriv(si, sj, pr.R) +
			float64(p.EmbedDeriv(rho[pr.I])*p.DensityDeriv(sj, pr.R)) +
			float64(p.EmbedDeriv(rho[pr.J])*p.DensityDeriv(si, pr.R))
		for a := 0; a < 3; a++ {
			forces[pr.I][a] -= float64(dEdr * pr.Unit[a])
			forces[pr.J][a] += float64(dEdr * pr.Unit[a])
		}
	}
	return forces
}

// RegionEvaluator is the tabulated lattice-path evaluator: pair and
// density values are precomputed at the discrete shell distances of the
// triple-encoding tables, so region energies need only table lookups.
// It provides the same region/hop interface as nnp.Potential, letting the
// KMC engines run on either potential.
type RegionEvaluator struct {
	Pot *Potential
	Tb  *encoding.Tables
	// pairTab[(a*NumElements+b)*nDist + d] = φ_ab(r_d);
	// densTab[b*nDist + d] = ψ_b(r_d).
	pairTab []float64
	densTab []float64
	nDist   int
}

// NewRegionEvaluator tabulates the potential on the given tables. The
// potential cutoff must not exceed the tables' cutoff, otherwise region
// energies would miss interactions.
func NewRegionEvaluator(p *Potential, tb *encoding.Tables) *RegionEvaluator {
	if p.P.RCut > tb.Rcut+1e-9 {
		panic("eam: potential cutoff exceeds encoding tables cutoff")
	}
	e := &RegionEvaluator{Pot: p, Tb: tb, nDist: len(tb.Distances)}
	e.pairTab = make([]float64, lattice.NumElements*lattice.NumElements*e.nDist)
	e.densTab = make([]float64, lattice.NumElements*e.nDist)
	for d, r := range tb.Distances {
		for a := 0; a < lattice.NumElements; a++ {
			for b := 0; b < lattice.NumElements; b++ {
				e.pairTab[(a*lattice.NumElements+b)*e.nDist+d] = p.Pair(lattice.Species(a), lattice.Species(b), r)
			}
			e.densTab[a*e.nDist+d] = p.Density(lattice.Species(a), r)
		}
	}
	return e
}

// Tables returns the encoding tables the evaluator was built on,
// satisfying the KMC engine's Model interface.
func (e *RegionEvaluator) Tables() *encoding.Tables { return e.Tb }

// SiteEnergy returns the per-atom energy of region site i in state vet:
// ½·E_V + F(E_R), Eq. (7). Vacant sites have zero energy.
func (e *RegionEvaluator) SiteEnergy(vet encoding.VET, i int) float64 {
	s := vet[i]
	if !s.IsAtom() {
		return 0
	}
	ev, er := e.SiteEVER(vet, i)
	return float64(0.5*ev) + e.Pot.Embed(er)
}

// SiteEVER returns the pair sum E_V and density E_R of region site i —
// the per-atom quantities OpenKMC stores in its E_V/E_R arrays.
func (e *RegionEvaluator) SiteEVER(vet encoding.VET, i int) (ev, er float64) {
	s := vet[i]
	base := int(s) * lattice.NumElements * e.nDist
	for _, nb := range e.Tb.Neighbors(i) {
		o := vet[nb.ID]
		if !o.IsAtom() {
			continue
		}
		ev += e.pairTab[base+int(o)*e.nDist+int(nb.DistIndex)]
		er += e.densTab[int(o)*e.nDist+int(nb.DistIndex)]
	}
	return ev, er
}

// RegionEnergy sums per-atom energies over the jumping region.
func (e *RegionEvaluator) RegionEnergy(vet encoding.VET) float64 {
	total := 0.0
	for i := 0; i < e.Tb.NRegion; i++ {
		total += e.SiteEnergy(vet, i)
	}
	return total
}

// HopEnergies mirrors nnp.Potential.HopEnergies for the EAM path.
func (e *RegionEvaluator) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	initial = e.RegionEnergy(vet)
	for k := 0; k < 8; k++ {
		if !vet[e.Tb.NN1Index[k]].IsAtom() {
			continue
		}
		e.Tb.ApplyHop(vet, k)
		final[k] = e.RegionEnergy(vet)
		valid[k] = true
		e.Tb.ApplyHop(vet, k)
	}
	return initial, final, valid
}
