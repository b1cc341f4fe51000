package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"tensorkmc/internal/dataset"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/feature"
	"tensorkmc/internal/lattice"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/units"
)

// smallDataset generates a compact train/test pair shared by the tests.
func smallDataset(t *testing.T, n, nTrain int) (train, test []dataset.Structure) {
	t.Helper()
	oracle := eam.New(eam.Default())
	cfg := dataset.DefaultConfig()
	structs := dataset.Generate(n, oracle, cfg, rng.New(100))
	return dataset.Split(structs, nTrain, rng.New(101))
}

// TestFitLearnsOracle is the miniature Fig. 7: a small network trained on
// synthetic-oracle labels must reach few-meV/atom energy errors and high
// parity R² on held-out structures.
func TestFitLearnsOracle(t *testing.T) {
	train, test := smallDataset(t, 48, 40)
	desc := feature.Standard(units.CutoffStandard)
	var lastMAE float64
	pot, err := Fit(train, desc, Options{
		Sizes:           []int{64, 32, 16, 1},
		Epochs:          350,
		BatchStructures: 10,
		LR:              3e-3,
		WeightDecay:     3e-5,
		ForceWeight:     0.5,
		Seed:            7,
		Progress:        func(_ int, mae float64) { lastMAE = mae },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastMAE > 0.03 {
		t.Fatalf("training MAE %v eV/atom, want < 0.03", lastMAE)
	}
	m := Evaluate(pot, test)
	// This is a deliberately small run (40 structures); the full Fig. 7
	// configuration in cmd/tkmc-bench reaches few-meV/atom MAE, energy
	// R² ≈ 0.98+ and force R² ≈ 0.9. Thresholds here only guard against
	// regressions in the pipeline.
	if m.EnergyMAE > 0.02 {
		t.Fatalf("test energy MAE = %v eV/atom, want < 0.02", m.EnergyMAE)
	}
	if m.EnergyR2 < 0.9 {
		t.Fatalf("test energy R² = %v, want > 0.9", m.EnergyR2)
	}
	if m.ForceR2 < 0.3 {
		t.Fatalf("test force R² = %v, want > 0.3", m.ForceR2)
	}
	if m.EnergyRMSE < m.EnergyMAE {
		t.Fatalf("RMSE %v < MAE %v is impossible", m.EnergyRMSE, m.EnergyMAE)
	}
}

func TestFitDeterministic(t *testing.T) {
	train, _ := smallDataset(t, 12, 10)
	desc := feature.Standard(units.CutoffStandard)
	opt := Options{Sizes: []int{64, 8, 1}, Epochs: 5, BatchStructures: 5, LR: 1e-3, Seed: 3}
	a, err := Fit(train, desc, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(train, desc, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := &train[0]
	ea := a.StructureEnergy(s.Pos, s.Spec, s.Cell)
	eb := b.StructureEnergy(s.Pos, s.Spec, s.Cell)
	if ea != eb {
		t.Fatalf("same seed trained different potentials: %v vs %v", ea, eb)
	}
}

func TestFitValidation(t *testing.T) {
	desc := feature.Standard(units.CutoffStandard)
	if _, err := Fit(nil, desc, DefaultOptions()); err == nil {
		t.Fatal("Fit accepted empty dataset")
	}
	train, _ := smallDataset(t, 4, 3)
	if _, err := Fit(train, desc, Options{Sizes: []int{64, 1}, Epochs: 0, BatchStructures: 1, LR: 1e-3}); err == nil {
		t.Fatal("Fit accepted zero epochs")
	}
	if _, err := Fit(train, desc, Options{Sizes: []int{64, 1}, Epochs: 1, BatchStructures: 0, LR: 1e-3}); err == nil {
		t.Fatal("Fit accepted zero batch size")
	}
	// Each bad value is refused by an error naming it: NaN fails every
	// ordered comparison, so it needs a test of its own, and a bad size
	// must not reach the nnp constructors, which panic.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		edit func(*Options)
		want string
	}{
		{"NaN learning rate", func(o *Options) { o.LR = nan }, "learning rate"},
		{"infinite learning rate", func(o *Options) { o.LR = inf }, "learning rate"},
		{"zero learning rate", func(o *Options) { o.LR = 0 }, "learning rate"},
		{"NaN weight decay", func(o *Options) { o.WeightDecay = nan }, "weight decay"},
		{"infinite weight decay", func(o *Options) { o.WeightDecay = inf }, "weight decay"},
		{"negative weight decay", func(o *Options) { o.WeightDecay = -1 }, "weight decay"},
		{"NaN force weight", func(o *Options) { o.ForceWeight = nan }, "force weight"},
		{"infinite force weight", func(o *Options) { o.ForceWeight = inf }, "force weight"},
		{"negative force weight", func(o *Options) { o.ForceWeight = -1 }, "force weight"},
		{"zero hidden width", func(o *Options) { o.Sizes = []int{64, 0, 1} }, "layer size 0"},
		{"input short of the descriptor", func(o *Options) { o.Sizes = []int{32, 1} }, "descriptor dimension 64"},
		{"two outputs", func(o *Options) { o.Sizes = []int{64, 8, 2} }, "one output"},
		{"no layer", func(o *Options) { o.Sizes = []int{64} }, "at least"},
	} {
		opt := Options{Sizes: []int{64, 8, 1}, Epochs: 1, BatchStructures: 2, LR: 1e-3, ForceWeight: 0.1}
		c.edit(&opt)
		_, err := Fit(train, desc, opt)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Fit error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestFitReferences(t *testing.T) {
	// Synthetic structures with exactly linear energies must be
	// reproduced by the reference fit.
	var structs []dataset.Structure
	const eFe, eCu = -4.2, -3.6
	r := rng.New(8)
	for i := 0; i < 10; i++ {
		nFe := 40 + r.Intn(20)
		nCu := 1 + r.Intn(20)
		s := dataset.Structure{}
		for j := 0; j < nFe; j++ {
			s.Spec = append(s.Spec, lattice.Fe)
			s.Pos = append(s.Pos, [3]float64{})
		}
		for j := 0; j < nCu; j++ {
			s.Spec = append(s.Spec, lattice.Cu)
			s.Pos = append(s.Pos, [3]float64{})
		}
		s.Energy = float64(nFe)*eFe + float64(nCu)*eCu
		structs = append(structs, s)
	}
	gotFe, gotCu := fitReferences(structs)
	if math.Abs(gotFe-eFe) > 1e-9 || math.Abs(gotCu-eCu) > 1e-9 {
		t.Fatalf("fitReferences = (%v, %v), want (%v, %v)", gotFe, gotCu, eFe, eCu)
	}
}

func TestChannelStats(t *testing.T) {
	feats := [][]float64{{1, 10}, {3, 10}}
	mean, std := channelStats(feats, 2)
	if mean[0] != 2 || mean[1] != 10 {
		t.Fatalf("mean = %v", mean)
	}
	if std[0] != 1 {
		t.Fatalf("std[0] = %v, want 1", std[0])
	}
	// Zero-variance channel falls back to 1 to avoid division by zero.
	if std[1] != 1 {
		t.Fatalf("std[1] = %v, want fallback 1", std[1])
	}
}

// TestCosineDecayImprovesConvergence: annealing the learning rate must
// not hurt (and typically helps) the final training error on the same
// budget.
func TestCosineDecayImprovesConvergence(t *testing.T) {
	train, test := smallDataset(t, 24, 20)
	desc := feature.Standard(units.CutoffStandard)
	base := Options{Sizes: []int{64, 16, 1}, Epochs: 80, BatchStructures: 10, LR: 3e-3, Seed: 5}
	fit := func(decay bool) float64 {
		opt := base
		opt.CosineDecay = decay
		pot, err := Fit(train, desc, opt)
		if err != nil {
			t.Fatal(err)
		}
		return Evaluate(pot, test).EnergyMAE
	}
	flat := fit(false)
	cos := fit(true)
	t.Logf("test MAE: constant LR %.2f meV/atom, cosine %.2f meV/atom", flat*1e3, cos*1e3)
	if cos > flat*1.5 {
		t.Fatalf("cosine decay markedly hurt convergence: %v vs %v", cos, flat)
	}
}

// TestFitWeightsPinned pins every weight and bias of three fixed-seed fits
// with energy and force loss, AdamW and cosine decay, as the SHA-256 of
// their little-endian bytes. The shapes cover the test network, the
// paper's production widths and (64,30,7,1), whose widths are no multiple
// of four. Any change to the order of a training sum moves a hash.
func TestFitWeightsPinned(t *testing.T) {
	structs, _ := smallDataset(t, 12, 10)
	desc := feature.Standard(units.CutoffStandard)
	for _, c := range []struct {
		sizes  []int
		epochs int
		want   string
	}{
		{[]int{64, 32, 16, 1}, 10, "7cbb343d8df9373921f08dd6439d5e1eef686a320411914f254d3f57796ad7e6"},
		{nnp.StandardSizes, 4, "fb56bdb07a7cadb88c296206110df4a6a553b844efb3d58193e0858bc63e5778"},
		{[]int{64, 30, 7, 1}, 10, "f8a732dcc98a7ebd1420b510d74c51e9f1ff5b4b0f5b6884ea3f23414f3cc4d2"},
	} {
		pot, err := Fit(structs, desc, Options{
			Sizes: c.sizes, Epochs: c.epochs, BatchStructures: 4, LR: 3e-3,
			WeightDecay: 3e-5, CosineDecay: true, ForceWeight: 0.5, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, net := range pot.Nets {
			for _, l := range net.Layers {
				binary.Write(h, binary.LittleEndian, l.W.Data)
				binary.Write(h, binary.LittleEndian, l.B)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("sizes %v: weights SHA-256 %s, want %s", c.sizes, got, c.want)
		}
	}
}
