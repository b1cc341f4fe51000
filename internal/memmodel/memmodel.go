// Package memmodel produces the Table 1 memory comparison: the cache-all
// OpenKMC baseline versus TensorKMC's vacancy-cached layout, per array
// and at runtime, as a function of simulation size. Formulas mirror the
// real data structures of internal/openkmc and internal/kmc byte for
// byte and are validated against live engines in the tests; paper-scale
// rows (54 and 128 million atoms and beyond) are then pure arithmetic.
package memmodel

import (
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/kmc"
)

// CGBudgetBytes is the per-core-group memory budget of the new Sunway
// (16 GB, paper Sec. 4.4.1): the baseline's feasibility cap.
const CGBudgetBytes = 16 << 30

// runtimeOverhead multiplies raw array totals to account for allocator
// slack, engine bookkeeping and transient buffers, measured against live
// engines in the tests.
const runtimeOverhead = 1.05

// OpenKMCRow itemises the baseline's arrays for n lattice sites, in
// bytes. NLocal is the neighbour-list length per site (112 at 6.5 Å).
type OpenKMCRow struct {
	T       float64 // 12 B/site coordinates
	PosID   float64 // 16 B/site dense coordinate table (4 cells × 4 B)
	EV      float64 // 8 B/site pair sums
	ER      float64 // 8 B/site densities
	Neigh   float64 // 4·(NLocal/2) B/site Newton half neighbour lists
	Lattice float64 // 1 B/site species
	Runtime float64
	// OOM reports whether the runtime footprint exceeds the 16 GB CG
	// budget — the paper's "-" entry at 128 M atoms.
	OOM bool
}

// OpenKMC returns the baseline's footprint for n sites with the given
// neighbour-list length (stored as Newton half lists, NLocal/2 entries
// per site).
func OpenKMC(n float64, nLocal int) OpenKMCRow {
	r := OpenKMCRow{
		T:       12 * n,
		PosID:   16 * n,
		EV:      8 * n,
		ER:      8 * n,
		Neigh:   4 * float64(nLocal/2) * n,
		Lattice: n,
	}
	r.Runtime = (r.T + r.PosID + r.EV + r.ER + r.Neigh + r.Lattice) * runtimeOverhead
	r.OOM = r.Runtime > CGBudgetBytes
	return r
}

// TensorKMCRow itemises TensorKMC's footprint for n sites and nVac
// vacancies.
type TensorKMCRow struct {
	Lattice  float64 // 1 B/site species — the only size-proportional array
	VacCache float64 // per-vacancy VET + bookkeeping
	Shared   float64 // CET/NET/TABLE and the vacancy cache's memo, constant
	Runtime  float64
	OOM      bool
}

// vacSystemBytes returns the cache cost of one vacancy system: the VET
// (1 B per CET entry), the 8 rates and energies, and struct bookkeeping.
func vacSystemBytes(tb *encoding.Tables) float64 {
	return float64(tb.NAll) + 8*8 + 8*8 + 64
}

// TensorKMC returns TensorKMC's footprint for n sites with nVac
// vacancies under the given encoding tables, on one rank: one vacancy
// cache, so one memo.
func TensorKMC(n, nVac float64, tb *encoding.Tables) TensorKMCRow {
	r := TensorKMCRow{
		Lattice:  n,
		VacCache: nVac * vacSystemBytes(tb),
		Shared:   float64(tb.MemoryBytes() + kmc.MemoBytes(tb)),
	}
	r.Runtime = (r.Lattice + r.VacCache + r.Shared) * runtimeOverhead
	r.OOM = r.Runtime > CGBudgetBytes
	return r
}

// Row is one Table 1 line.
type Row struct {
	AtomsMillions float64
	Open          OpenKMCRow
	Tensor        TensorKMCRow
	// Ratio is baseline/TensorKMC runtime (∞-safe: 0 if TensorKMC is 0).
	Ratio float64
}

// Table1 evaluates the comparison at the paper's sizes (2, 16, 54, 128
// million atoms) with its vacancy fraction (8×10⁻⁴ at.%).
func Table1(tb *encoding.Tables) []Row {
	return TableFor(tb, []float64{2, 16, 54, 128}, 8e-6)
}

// TableFor evaluates arbitrary sizes (in millions of atoms) at the given
// vacancy fraction.
func TableFor(tb *encoding.Tables, millions []float64, vacFrac float64) []Row {
	var out []Row
	for _, m := range millions {
		n := m * 1e6
		row := Row{
			AtomsMillions: m,
			Open:          OpenKMC(n, tb.NLocal),
			Tensor:        TensorKMC(n, n*vacFrac, tb),
		}
		if row.Tensor.Runtime > 0 {
			row.Ratio = row.Open.Runtime / row.Tensor.Runtime
		}
		out = append(out, row)
	}
	return out
}

// PerAtomBytes summarises both layouts' marginal per-atom cost, the
// paper's "0.70 kB → 0.10 kB" statement (our from-scratch implementation
// is leaner on both sides; the ratio is what carries over).
func PerAtomBytes(tb *encoding.Tables, vacFrac float64) (open, tensor float64) {
	const n = 1e8
	o := OpenKMC(n, tb.NLocal)
	t := TensorKMC(n, n*vacFrac, tb)
	return o.Runtime / n, (t.Runtime - t.Shared) / n
}
