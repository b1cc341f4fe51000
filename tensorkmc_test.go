package tensorkmc_test

import (
	"path/filepath"
	"testing"

	"tensorkmc"
)

// TestPublicAPIRoundTrip exercises the documented public surface end to
// end: dataset → training → save/load → NNP-driven simulation → analysis.
func TestPublicAPIRoundTrip(t *testing.T) {
	structs := tensorkmc.GenerateDataset(12, 1)
	if len(structs) != 12 {
		t.Fatalf("GenerateDataset returned %d structures", len(structs))
	}
	trainSet, testSet := tensorkmc.SplitDataset(structs, 9, 2)
	if len(trainSet) != 9 || len(testSet) != 3 {
		t.Fatal("SplitDataset sizes wrong")
	}

	opt := tensorkmc.DefaultTrainOptions()
	opt.Sizes = []int{64, 8, 1}
	opt.Epochs = 5
	opt.ForceWeight = 0
	pot, err := tensorkmc.TrainPotential(trainSet, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := tensorkmc.EvaluatePotential(pot, testSet)
	if m.EnergyMAE <= 0 {
		t.Fatal("evaluation produced no metrics")
	}

	path := filepath.Join(t.TempDir(), "p.pot")
	if err := tensorkmc.SavePotential(pot, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := tensorkmc.LoadPotential(path)
	if err != nil {
		t.Fatal(err)
	}

	sim, err := tensorkmc.New(tensorkmc.Config{
		Cells:           [3]int{10, 10, 10},
		CuFraction:      0.02,
		VacancyFraction: 0.001,
		Seed:            3,
		Potential:       tensorkmc.NNP,
		Net:             loaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1e-9, nil); err != nil {
		t.Fatal(err)
	}
	if sim.Analyze().NumCu == 0 {
		t.Fatal("analysis empty")
	}
}

// TestPublicAPIDefaults checks the exported physical constants match the
// paper's values.
func TestPublicAPIDefaults(t *testing.T) {
	if tensorkmc.LatticeConstantFe != 2.87 || tensorkmc.CutoffStandard != 6.5 ||
		tensorkmc.CutoffShort != 5.8 || tensorkmc.ReactorTemperature != 573 {
		t.Fatal("exported constants do not match the paper")
	}
}

// TestPublicAPIEAMSimulation runs the default-potential path.
func TestPublicAPIEAMSimulation(t *testing.T) {
	sim, err := tensorkmc.New(tensorkmc.Config{
		Cells: [3]int{10, 10, 10}, CuFraction: 0.05, VacancyFraction: 0.002, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(2e-8, nil); err != nil {
		t.Fatal(err)
	}
	if sim.Hops() == 0 {
		t.Fatal("no dynamics")
	}
}

// TestDiffusionTrackerAPI exercises the public transport-observable path.
func TestDiffusionTrackerAPI(t *testing.T) {
	sim, err := tensorkmc.New(tensorkmc.Config{
		Cells: [3]int{10, 10, 10}, VacancyFraction: 0.0005, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := tensorkmc.NewDiffusionTracker(sim)
	if _, err := sim.Run(2e-8, tr.Record); err != nil {
		t.Fatal(err)
	}
	if tr.Hops() == 0 || tr.Time() <= 0 {
		t.Fatal("tracker recorded nothing")
	}
	if tr.Coefficient(tensorkmc.LatticeConstantFe) <= 0 {
		t.Fatal("non-positive diffusivity")
	}
}
