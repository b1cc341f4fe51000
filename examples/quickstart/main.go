// Quickstart: the smallest complete TensorKMC run.
//
// Builds a 10×10×10-cell bcc Fe–Cu box (2,000 sites) with 2 % Cu and a
// few vacancies, evolves it for 50 ns of simulated time at the reactor
// temperature with the analytic EAM potential, and prints the Cu cluster
// statistics before and after.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tensorkmc"
)

func main() {
	sim, err := tensorkmc.New(tensorkmc.Config{
		Cells:           [3]int{10, 10, 10},
		CuFraction:      0.02,
		VacancyFraction: 0.002,
		Seed:            42,
		// Temperature, lattice constant and cutoff default to the
		// paper's values (573 K, 2.87 Å, 6.5 Å).
	})
	if err != nil {
		log.Fatal(err)
	}

	before := sim.Analyze()
	fmt.Printf("before: %d Cu atoms, %d isolated, %d clusters\n",
		before.NumCu, before.Isolated, before.Clusters)

	report, err := sim.Run(5e-8, nil)
	if err != nil {
		log.Fatal(err)
	}

	after := sim.Analyze()
	fmt.Printf("after %.3g s (%d hops): %d isolated, %d clusters, largest %d\n",
		sim.Time(), report.Hops, after.Isolated, after.Clusters, after.MaxSize)
}
