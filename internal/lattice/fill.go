package lattice

import (
	"fmt"

	"tensorkmc/internal/rng"
)

// FillRandomAlloy populates the box with a random Fe–Cu solid solution
// plus vacancies at the requested atomic fractions, using reservoir-free
// exact counts: exactly round(frac·N) sites of each minority species are
// placed, so concentrations are reproducible across runs with the same
// seed. cuFrac and vacFrac are atomic fractions in [0, 1).
func FillRandomAlloy(b *Box, cuFrac, vacFrac float64, r *rng.Stream) (nCu, nVac int) {
	n := b.NumSites()
	nCu = int(float64(cuFrac*float64(n)) + 0.5)
	nVac = int(float64(vacFrac*float64(n)) + 0.5)
	if nCu+nVac > n {
		panic(fmt.Sprintf("lattice: fractions too large (%d Cu + %d vac > %d sites)", nCu, nVac, n))
	}
	for i := range b.types {
		b.types[i] = Fe
	}
	placed := 0
	for placed < nCu {
		i := r.Intn(n)
		if b.types[i] == Fe {
			b.types[i] = Cu
			placed++
		}
	}
	placed = 0
	for placed < nVac {
		i := r.Intn(n)
		if b.types[i] == Fe {
			b.types[i] = Vacancy
			placed++
		}
	}
	return nCu, nVac
}

// Vacancies returns the canonical coordinates of every vacancy in the box
// in storage order.
func Vacancies(b *Box) []Vec {
	var out []Vec
	for i, s := range b.types {
		if s == Vacancy {
			out = append(out, b.SiteAt(i))
		}
	}
	return out
}
