package tensorkmc_test

import (
	"fmt"

	"tensorkmc"
)

// ExampleNew runs the smallest complete simulation: a dilute Fe–Cu box
// evolved for 10 ns at the paper's defaults.
func ExampleNew() {
	sim, err := tensorkmc.New(tensorkmc.Config{
		Cells:           [3]int{10, 10, 10},
		CuFraction:      0.02,
		VacancyFraction: 0.002,
		Seed:            42,
	})
	if err != nil {
		panic(err)
	}
	report, err := sim.Run(1e-8, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("Cu atoms:", sim.Analyze().NumCu)
	fmt.Println("hops executed > 0:", report.Hops > 0)
	// Output:
	// Cu atoms: 40
	// hops executed > 0: true
}

// ExampleSimulation_Run shows event observation: counting Cu moves.
func ExampleSimulation_Run() {
	sim, err := tensorkmc.New(tensorkmc.Config{
		Cells:           [3]int{10, 10, 10},
		CuFraction:      0.05,
		VacancyFraction: 0.002,
		Seed:            7,
	})
	if err != nil {
		panic(err)
	}
	total := 0
	_, err = sim.Run(1e-8, func(ev tensorkmc.Event) { total++ })
	if err != nil {
		panic(err)
	}
	fmt.Println("observed every hop:", int64(total) == sim.Hops())
	// Output:
	// observed every hop: true
}

// ExampleNewDiffusionTracker measures vacancy transport.
func ExampleNewDiffusionTracker() {
	sim, err := tensorkmc.New(tensorkmc.Config{
		Cells:           [3]int{10, 10, 10},
		VacancyFraction: 0.001,
		Seed:            1,
	})
	if err != nil {
		panic(err)
	}
	tr := tensorkmc.NewDiffusionTracker(sim)
	if _, err := sim.Run(2e-8, tr.Record); err != nil {
		panic(err)
	}
	fmt.Println("diffusivity positive:", tr.Coefficient(tensorkmc.LatticeConstantFe) > 0)
	// Output:
	// diffusivity positive: true
}
