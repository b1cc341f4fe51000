package nnp

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// TestTransposedProductsMatchLoops: the two products backpropagation
// forms through an explicit transpose, Xᵀ·δ (weight gradients) and δ·Wᵀ
// (input gradients), equal in every bit a plain loop that sums the
// products in ascending order over the batch index and over the shared
// index. The shapes run the AVX2 quads (widths that are multiples of four,
// or 1) and the pure-Go rows; a third of the entries are ±0 so the
// zero-skip runs.
func TestTransposedProductsMatchLoops(t *testing.T) {
	r := rng.New(1)
	fill := func(m Matrix) Matrix {
		for i := range m.Data {
			switch r.Intn(6) {
			case 0:
				m.Data[i] = 0
			case 1:
				m.Data[i] = math.Copysign(0, -1)
			default:
				m.Data[i] = r.NormFloat64()
			}
		}
		return m
	}
	same := func(what string, got Matrix, want func(i, j int) float64) {
		t.Helper()
		for i := 0; i < got.Rows; i++ {
			for j := 0; j < got.Cols; j++ {
				if g, w := got.Data[i*got.Cols+j], want(i, j); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s %dx%d [%d][%d] = %#x, loop %#x", what, got.Rows, got.Cols, i, j, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
	for _, sh := range [][3]int{{5, 7, 4}, {9, 8, 1}, {13, 16, 12}, {6, 3, 5}, {1, 4, 8}} {
		batch, in, out := sh[0], sh[1], sh[2]
		x, delta := fill(NewMatrix(batch, in)), fill(NewMatrix(batch, out))
		same("Xᵀ·δ", product(x.transpose(), delta), func(k, j int) float64 {
			var s float64
			for i := 0; i < batch; i++ {
				s += float64(x.At(i, k) * delta.At(i, j))
			}
			return s
		})
		w := fill(NewMatrix(in, out))
		same("δ·Wᵀ", product(delta, w.transpose()), func(i, k int) float64 {
			var s float64
			for j := 0; j < out; j++ {
				s += float64(delta.At(i, j) * w.At(k, j))
			}
			return s
		})
	}
}

// TestShapePanics: a product of mismatched shapes, a forward pass of the
// wrong input width and a co-gradient of the wrong shape panic instead of
// reading past a row.
func TestShapePanics(t *testing.T) {
	n := NewNetwork([]int{3, 4, 1}, rng.New(2))
	_, tape := n.ForwardTape(NewMatrix(2, 3))
	for name, f := range map[string]func(){
		"product":        func() { product(NewMatrix(2, 3), NewMatrix(4, 2)) },
		"Forward":        func() { n.Forward(NewMatrix(2, 5)) },
		"ForwardTape":    func() { n.ForwardTape(NewMatrix(2, 5)) },
		"DoubleBackward": func() { n.DoubleBackward(tape, nil, NewMatrix(3, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNetworkShapes(t *testing.T) {
	n := NewNetwork([]int{64, 128, 128, 128, 64, 1}, rng.New(2))
	if n.InputDim() != 64 || n.OutputDim() != 1 {
		t.Fatal("network dims wrong")
	}
	wantParams := 64*128 + 128 + 128*128 + 128 + 128*128 + 128 + 128*64 + 64 + 64*1 + 1
	if n.NumParams() != wantParams {
		t.Fatalf("NumParams = %d, want %d", n.NumParams(), wantParams)
	}
	wantFlops := 2 * (64*128 + 128*128 + 128*128 + 128*64 + 64)
	if n.FlopsPerSample() != wantFlops {
		t.Fatalf("FlopsPerSample = %d, want %d", n.FlopsPerSample(), wantFlops)
	}
	x := NewMatrix(5, 64)
	out := n.Forward(x)
	if out.Rows != 5 || out.Cols != 1 {
		t.Fatalf("forward output %dx%d, want 5x1", out.Rows, out.Cols)
	}
	// Hidden layers ReLU, last linear.
	for l, layer := range n.Layers {
		wantRelu := l != len(n.Layers)-1
		if layer.Relu != wantRelu {
			t.Fatalf("layer %d Relu = %v, want %v", l, layer.Relu, wantRelu)
		}
	}
}

func TestForwardTapeMatchesForward(t *testing.T) {
	n := NewNetwork([]int{6, 8, 1}, rng.New(3))
	r := rng.New(4)
	x := NewMatrix(7, 6)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	a := n.Forward(x)
	b, tape := n.ForwardTape(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("ForwardTape output differs from Forward")
		}
	}
	if len(tape.acts) != len(n.Layers)+1 {
		t.Fatalf("tape has %d activations, want %d", len(tape.acts), len(n.Layers)+1)
	}
}

// TestBackwardNumericalGradient checks every parameter gradient of a
// small network against central differences on a scalar loss.
func TestBackwardNumericalGradient(t *testing.T) {
	n := NewNetwork([]int{4, 6, 3, 1}, rng.New(5))
	r := rng.New(6)
	x := NewMatrix(9, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	loss := func(net *Network) float64 {
		out := net.Forward(x)
		var l float64
		for _, v := range out.Data {
			l += v * v
		}
		return 0.5 * l
	}
	out, tape := n.ForwardTape(x)
	outGrad := out.Clone() // dL/dout = out for L = ½Σout².
	inGrad, grads := n.Backward(tape, outGrad)

	const h = 1e-6
	for l := range n.Layers {
		for i := range n.Layers[l].W.Data {
			orig := n.Layers[l].W.Data[i]
			n.Layers[l].W.Data[i] = orig + h
			lp := loss(n)
			n.Layers[l].W.Data[i] = orig - h
			lm := loss(n)
			n.Layers[l].W.Data[i] = orig
			num := (lp - lm) / (2 * h)
			got := grads[l].W.Data[i]
			if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d W[%d]: analytic %v vs numeric %v", l, i, got, num)
			}
		}
		for i := range n.Layers[l].B {
			orig := n.Layers[l].B[i]
			n.Layers[l].B[i] = orig + h
			lp := loss(n)
			n.Layers[l].B[i] = orig - h
			lm := loss(n)
			n.Layers[l].B[i] = orig
			num := (lp - lm) / (2 * h)
			got := grads[l].B[i]
			if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d B[%d]: analytic %v vs numeric %v", l, i, got, num)
			}
		}
	}
	// Input gradient check on a few entries.
	for _, i := range []int{0, 5, 17, 35} {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := loss(n)
		x.Data[i] = orig - h
		lm := loss(n)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-inGrad.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad [%d]: analytic %v vs numeric %v", i, inGrad.Data[i], num)
		}
	}
}

// TestAdamConvergesOnToyRegression verifies the optimiser can actually
// fit a simple target, the backbone of the Fig. 7 training pipeline.
func TestAdamConvergesOnToyRegression(t *testing.T) {
	n := NewNetwork([]int{3, 16, 1}, rng.New(7))
	opt := NewAdam(0.01)
	r := rng.New(8)
	x := NewMatrix(64, 3)
	y := NewMatrix(64, 1)
	for i := 0; i < 64; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		y.Set(i, 0, x.At(i, 0)+0.5*x.At(i, 1)-0.25*x.At(i, 2))
	}
	mse := func() float64 {
		out := n.Forward(x)
		var s float64
		for i := range out.Data {
			d := out.Data[i] - y.Data[i]
			s += d * d
		}
		return s / float64(len(out.Data))
	}
	initial := mse()
	for step := 0; step < 400; step++ {
		out, tape := n.ForwardTape(x)
		grad := NewMatrix(out.Rows, 1)
		for i := range out.Data {
			grad.Data[i] = 2 * (out.Data[i] - y.Data[i]) / float64(len(out.Data))
		}
		_, grads := n.Backward(tape, grad)
		opt.Step(n, grads)
	}
	final := mse()
	if final > initial/20 {
		t.Fatalf("Adam did not converge: initial MSE %v, final %v", initial, final)
	}
}

func stdPotential(sizes []int, seed uint64) (*Potential, *encoding.Tables, *feature.Table) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffStandard)
	desc := feature.Standard(units.CutoffStandard)
	tab := feature.NewTable(desc, tb.Distances)
	pot := NewPotential(desc, sizes, rng.New(seed))
	return pot, tb, tab
}

func TestRegionEnergyAllFe(t *testing.T) {
	pot, tb, tab := stdPotential([]int{64, 8, 1}, 11)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	e := pot.RegionEnergy(tb, tab, vet, nil)
	// Every region site has an identical perfect-Fe environment, so the
	// energy is NRegion times the single-atom energy.
	feats := make([]float64, pot.Desc.Dim())
	feature.ComputeSite(tb, tab, vet, 0, feats)
	single := pot.AtomEnergy(lattice.Fe, feats)
	if math.Abs(e-float64(tb.NRegion)*single) > 1e-8*math.Abs(e) {
		t.Fatalf("all-Fe region energy %v, want %v", e, float64(tb.NRegion)*single)
	}
}

// TestHopSymmetryPureFe: in a pure-Fe lattice with a single vacancy, all
// 8 hops are symmetry-equivalent and must leave the region energy exactly
// unchanged (ΔE = 0), which is what makes the pure-metal hop rate equal
// the bare Arrhenius rate.
func TestHopSymmetryPureFe(t *testing.T) {
	pot, tb, tab := stdPotential([]int{64, 16, 1}, 12)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	initial, final, valid, _ := pot.HopEnergies(tb, tab, vet, pot.NewScratch(tb))
	for k := 0; k < 8; k++ {
		if !valid[k] {
			t.Fatalf("hop %d invalid in pure Fe", k)
		}
		if math.Abs(final[k]-initial) > 1e-7*(1+math.Abs(initial)) {
			t.Fatalf("hop %d: E_f %v != E_i %v in pure Fe", k, final[k], initial)
		}
	}
}

func TestHopEnergiesMatchManualSwap(t *testing.T) {
	pot, tb, tab := stdPotential([]int{64, 8, 1}, 13)
	box := lattice.NewBox(14, 14, 14, tb.A)
	lattice.FillRandomAlloy(box, 0.2, 0.0, rng.New(14))
	center := lattice.Vec{X: 14, Y: 14, Z: 14}
	box.Set(center, lattice.Vacancy)
	vet := tb.NewVET()
	tb.FillVET(vet, center, box.Get)
	s := pot.NewScratch(tb)
	initial, final, valid, _ := pot.HopEnergies(tb, tab, vet, s)
	for k := 0; k < 8; k++ {
		if !valid[k] {
			continue
		}
		tb.ApplyHop(vet, k)
		want := pot.RegionEnergy(tb, tab, vet, s)
		tb.ApplyHop(vet, k)
		if final[k] != want {
			t.Fatalf("hop %d: HopEnergies %v vs manual %v", k, final[k], want)
		}
	}
	back := pot.RegionEnergy(tb, tab, vet, s)
	if back != initial {
		t.Fatal("HopEnergies mutated the VET")
	}
	// Vacancy-target hop must be invalid.
	vet[tb.NN1Index[3]] = lattice.Vacancy
	_, _, valid2, _ := pot.HopEnergies(tb, tab, vet, s)
	if valid2[3] {
		t.Fatal("hop into another vacancy reported valid")
	}
}

func TestHopEnergiesVacancyMoveChangesEnergyInAlloy(t *testing.T) {
	pot, tb, tab := stdPotential([]int{64, 16, 1}, 15)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	// Put one Cu next to the vacancy: hops toward/away from it must now
	// have different energies.
	vet[tb.NN1Index[0]] = lattice.Cu
	initial, final, valid, _ := pot.HopEnergies(tb, tab, vet, nil)
	distinct := false
	for k := 0; k < 8; k++ {
		if valid[k] && math.Abs(final[k]-initial) > 1e-9 {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("alloyed environment produced no energy differences")
	}
}

func TestAtomEnergyVacancyZero(t *testing.T) {
	pot, _, _ := stdPotential([]int{64, 8, 1}, 16)
	feats := make([]float64, pot.Desc.Dim())
	if pot.AtomEnergy(lattice.Vacancy, feats) != 0 {
		t.Fatal("vacancy has non-zero atomic energy")
	}
}

func TestPotentialNormalization(t *testing.T) {
	pot, tb, tab := stdPotential([]int{64, 8, 1}, 17)
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	base := pot.RegionEnergy(tb, tab, vet, nil)
	// Identity normalisation must not change results.
	pot.FeatMean = make([]float64, pot.Desc.Dim())
	pot.FeatStd = make([]float64, pot.Desc.Dim())
	for i := range pot.FeatStd {
		pot.FeatStd[i] = 1
	}
	got := pot.RegionEnergy(tb, tab, vet, nil)
	if math.Abs(got-base) > 1e-12*(1+math.Abs(base)) {
		t.Fatalf("identity normalisation changed energy: %v vs %v", got, base)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	pot, tb, tab := stdPotential([]int{64, 32, 16, 1}, 18)
	pot.ERef = [lattice.NumElements]float64{-4.0, -3.5}
	pot.FeatMean = make([]float64, pot.Desc.Dim())
	pot.FeatStd = make([]float64, pot.Desc.Dim())
	for i := range pot.FeatStd {
		pot.FeatMean[i] = 0.1 * float64(i)
		pot.FeatStd[i] = 1 + 0.01*float64(i)
	}
	var buf bytes.Buffer
	if err := pot.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	vet := tb.NewVET()
	for i := range vet {
		vet[i] = lattice.Fe
	}
	vet[0] = lattice.Vacancy
	vet[5] = lattice.Cu
	a := pot.RegionEnergy(tb, tab, vet, nil)
	b := loaded.RegionEnergy(tb, tab, vet, nil)
	if a != b {
		t.Fatalf("round-tripped potential energy %v != original %v", b, a)
	}
	if loaded.ERef != pot.ERef {
		t.Fatal("ERef not preserved")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTAPOTENTIAL"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("Load accepted empty input")
	}
}

// TestLoadRejectsNonFinite: a NaN or ±Inf in any parameter field fails
// Load with an error naming the field, instead of loading cleanly and
// panicking at the first hop. The files are written by encode, since
// Save refuses them.
func TestLoadRejectsNonFinite(t *testing.T) {
	fields := map[string]func(p *Potential, v float64){
		"weight":           func(p *Potential, v float64) { p.Nets[lattice.Cu].Layers[1].W.Data[3] = v },
		"bias":             func(p *Potential, v float64) { p.Nets[lattice.Fe].Layers[0].B[2] = v },
		"feature mean":     func(p *Potential, v float64) { p.FeatMean[5] = v },
		"feature std":      func(p *Potential, v float64) { p.FeatStd[0] = v },
		"reference energy": func(p *Potential, v float64) { p.ERef[lattice.Cu] = v },
	}
	fresh := func() *Potential {
		pot, _, _ := stdPotential([]int{64, 8, 1}, 21)
		pot.FeatMean = make([]float64, pot.Desc.Dim())
		pot.FeatStd = make([]float64, pot.Desc.Dim())
		for i := range pot.FeatStd {
			pot.FeatStd[i] = 1
		}
		return pot
	}
	roundTrip := func(pot *Potential) error {
		var buf bytes.Buffer
		if err := pot.encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		return err
	}
	if err := roundTrip(fresh()); err != nil {
		t.Fatalf("clean potential rejected: %v", err)
	}
	for field, poison := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			pot := fresh()
			poison(pot, v)
			if err := roundTrip(pot); err == nil || !strings.Contains(err.Error(), field) {
				t.Fatalf("%s = %v: Load error %v, want one naming the %s", field, v, err, field)
			}
		}
	}
}

// TestSaveRejectsNonFinite: Save refuses a potential that Load would
// refuse, so no writer leaves a file a deck cannot use. A NaN weight is
// named in the error, nothing reaches the writer, and SaveFile leaves no
// file behind.
func TestSaveRejectsNonFinite(t *testing.T) {
	pot, _, _ := stdPotential([]int{64, 8, 1}, 23)
	pot.Nets[lattice.Fe].Layers[0].W.Data[0] = math.NaN()
	var buf bytes.Buffer
	if err := pot.Save(&buf); err == nil || !strings.Contains(err.Error(), "element 0 layer 0 weight[0]") {
		t.Fatalf("Save error %v, want one naming element 0 layer 0 weight[0]", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Save wrote %d bytes of a refused potential", buf.Len())
	}
	path := filepath.Join(t.TempDir(), "nan.pot")
	if err := pot.SaveFile(path); err == nil {
		t.Fatal("SaveFile accepted a NaN weight")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("SaveFile left %s behind (stat error %v)", path, err)
	}
}

// TestLoadRejectsNonPositiveStd: a zero, negative or negative-zero feature
// std fails Load with an error naming the channel, instead of loading
// cleanly and tripping the first hop's CorruptionError. Save refuses such
// a potential, so encode writes the file.
func TestLoadRejectsNonPositiveStd(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64} {
		pot, _, _ := stdPotential([]int{64, 8, 1}, 22)
		pot.FeatMean = make([]float64, pot.Desc.Dim())
		pot.FeatStd = make([]float64, pot.Desc.Dim())
		for i := range pot.FeatStd {
			pot.FeatStd[i] = 1
		}
		pot.FeatStd[37] = v
		if err := pot.Save(io.Discard); err == nil {
			t.Fatalf("std %v: Save accepted it", v)
		}
		var buf bytes.Buffer
		if err := pot.encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if err == nil || !strings.Contains(err.Error(), "feature std of channel 37 (element 1, (p,q) set 5)") {
			t.Fatalf("std %v: Load error %v, want one naming channel 37", v, err)
		}
	}
}

// TestStructureForcesMatchNumericalGradient validates the full
// energy→force chain (network backprop through the descriptor) against
// finite differences of StructureEnergy.
func TestStructureForcesMatchNumericalGradient(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	pot := NewPotential(desc, []int{64, 8, 1}, rng.New(19))
	a := units.LatticeConstantFe
	var pos [][3]float64
	var spec []lattice.Species
	r := rng.New(20)
	for z := 0; z < 2; z++ {
		for y := 0; y < 2; y++ {
			for x := 0; x < 2; x++ {
				pos = append(pos, [3]float64{a * float64(x), a * float64(y), a * float64(z)})
				pos = append(pos, [3]float64{a * (float64(x) + 0.5), a * (float64(y) + 0.5), a * (float64(z) + 0.5)})
				sp := lattice.Fe
				if r.Float64() < 0.3 {
					sp = lattice.Cu
				}
				spec = append(spec, sp, lattice.Fe)
			}
		}
	}
	cell := [3]float64{2 * a, 2 * a, 2 * a}
	for i := range pos {
		for ax := 0; ax < 3; ax++ {
			pos[i][ax] += 0.03 * r.NormFloat64()
		}
	}
	forces := pot.StructureForces(pos, spec, cell)
	const h = 1e-5
	for _, i := range []int{0, 3, 7, 11} {
		for ax := 0; ax < 3; ax++ {
			orig := pos[i][ax]
			pos[i][ax] = orig + h
			ep := pot.StructureEnergy(pos, spec, cell)
			pos[i][ax] = orig - h
			em := pot.StructureEnergy(pos, spec, cell)
			pos[i][ax] = orig
			num := -(ep - em) / (2 * h)
			if math.Abs(num-forces[i][ax]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("atom %d axis %d: analytic force %v vs numeric %v", i, ax, forces[i][ax], num)
			}
		}
	}
}

func TestNewPotentialPanics(t *testing.T) {
	desc := feature.Standard(6.5)
	for name, sizes := range map[string][]int{
		"wrong input": {32, 8, 1},
		"wide output": {64, 8, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewPotential(desc, sizes, rng.New(1))
		}()
	}
}

// TestEnergyGradientsMatchBackward: the input gradient from
// EnergyGradients (unit output co-gradient) must equal Backward's with an
// all-ones outGrad.
func TestEnergyGradientsMatchBackward(t *testing.T) {
	n := NewNetwork([]int{5, 7, 3, 1}, rng.New(21))
	r := rng.New(22)
	x := NewMatrix(6, 5)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	_, tape := n.ForwardTape(x)
	gA, preacts := n.EnergyGradients(tape)
	ones := NewMatrix(6, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	gB, _ := n.Backward(tape, ones)
	for i := range gA.Data {
		if math.Abs(gA.Data[i]-gB.Data[i]) > 1e-12 {
			t.Fatal("EnergyGradients disagrees with Backward")
		}
	}
	if len(preacts) != len(n.Layers) {
		t.Fatalf("preacts count %d, want %d", len(preacts), len(n.Layers))
	}
}

// TestDoubleBackwardNumerical validates the force-training gradient:
// dS/dW for S = Σ u·(∂Σout/∂x) against central differences.
func TestDoubleBackwardNumerical(t *testing.T) {
	n := NewNetwork([]int{4, 6, 1}, rng.New(23))
	r := rng.New(24)
	x := NewMatrix(5, 4)
	u := NewMatrix(5, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
		u.Data[i] = r.NormFloat64()
	}
	scalarS := func(net *Network) float64 {
		_, tape := net.ForwardTape(x)
		g, _ := net.EnergyGradients(tape)
		var s float64
		for i := range g.Data {
			s += g.Data[i] * u.Data[i]
		}
		return s
	}
	_, tape := n.ForwardTape(x)
	_, preacts := n.EnergyGradients(tape)
	grads := n.DoubleBackward(tape, preacts, u)
	const h = 1e-6
	for l := range n.Layers {
		for i := range n.Layers[l].W.Data {
			orig := n.Layers[l].W.Data[i]
			n.Layers[l].W.Data[i] = orig + h
			sp := scalarS(n)
			n.Layers[l].W.Data[i] = orig - h
			sm := scalarS(n)
			n.Layers[l].W.Data[i] = orig
			num := (sp - sm) / (2 * h)
			got := grads[l].W.Data[i]
			if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d W[%d]: double-backprop %v vs numeric %v", l, i, got, num)
			}
		}
		for _, b := range grads[l].B {
			if b != 0 {
				t.Fatal("bias gradient of input-gradient loss must be zero")
			}
		}
	}
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	n := NewNetwork([]int{2, 3, 1}, rng.New(25))
	opt := NewAdam(0.01)
	opt.WeightDecay = 0.1
	zeroGrads := make([]LayerGrad, len(n.Layers))
	for l := range zeroGrads {
		zeroGrads[l] = LayerGrad{W: NewMatrix(n.Layers[l].W.Rows, n.Layers[l].W.Cols), B: make([]float64, len(n.Layers[l].B))}
	}
	var before float64
	for _, l := range n.Layers {
		for _, w := range l.W.Data {
			before += w * w
		}
	}
	for i := 0; i < 10; i++ {
		opt.Step(n, zeroGrads)
	}
	var after float64
	for _, l := range n.Layers {
		for _, w := range l.W.Data {
			after += w * w
		}
	}
	if after >= before {
		t.Fatalf("weight decay did not shrink weights: %v -> %v", before, after)
	}
}

// At returns element (i, j).
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W.Data) + len(l.B)
	}
	return total
}
