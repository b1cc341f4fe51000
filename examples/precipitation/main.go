// Precipitation: the paper's application study (Sec. 5 / Fig. 14) at
// laptop scale — Cu cluster nucleation and growth in a thermally aged
// Fe–Cu alloy, tracked through the isolated-Cu count, the cluster-size
// histogram and the precipitate number density.
//
// The paper evolves 250 million atoms for one simulated second on the
// Sunway machine; here a 12³-cell box with raised Cu and vacancy
// concentrations reproduces the qualitative kinetics (isolated Cu falls,
// clusters nucleate and coarsen, density stabilises) in under a minute.
//
//	go run ./examples/precipitation
package main

import (
	"fmt"
	"log"
	"sort"

	"tensorkmc"
)

func main() {
	sim, err := tensorkmc.New(tensorkmc.Config{
		Cells:           [3]int{12, 12, 12},
		CuFraction:      0.04,   // supersaturated solid solution
		VacancyFraction: 0.0012, // accelerated vacancy-mediated transport
		Temperature:     tensorkmc.ReactorTemperature,
		Cutoff:          tensorkmc.CutoffStandard,
		Seed:            7,
	})
	if err != nil {
		log.Fatal(err)
	}

	a := sim.Analyze()
	fmt.Printf("thermal aging of Fe-%.1f%%Cu at %.0f K: %d Cu atoms, %d vacancies\n",
		100*sim.Cfg.CuFraction, sim.Cfg.Temperature, a.NumCu, countVac(sim))
	fmt.Printf("%12s %10s %12s %10s %9s %14s\n",
		"time (s)", "hops", "isolatedCu", "clusters", "maxSize", "density (/m^3)")
	fmt.Printf("%12.3g %10d %12d %10d %9d %14.3g\n",
		0.0, 0, a.Isolated, a.Clusters, a.MaxSize, a.NumberDensity)

	const segments = 8
	const perSegment = 2.5e-4 // seconds of simulated time
	for i := 0; i < segments; i++ {
		rep, err := sim.Run(perSegment, nil)
		if err != nil {
			log.Fatal(err)
		}
		a = sim.Analyze()
		fmt.Printf("%12.3g %10d %12d %10d %9d %14.3g\n",
			sim.Time(), rep.Hops, a.Isolated, a.Clusters, a.MaxSize, a.NumberDensity)
	}

	fmt.Println("\nfinal cluster-size distribution (size: count):")
	var sizes []int
	for s := range a.Histogram {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		fmt.Printf("  %3d: %d\n", s, a.Histogram[s])
	}
}

func countVac(sim *tensorkmc.Simulation) int {
	_, _, vac := sim.Box().Count()
	return vac
}
