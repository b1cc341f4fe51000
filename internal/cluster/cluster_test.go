package cluster

import (
	"math"
	"testing"

	"tensorkmc/internal/lattice"
	"tensorkmc/internal/rng"
)

func TestEmptyBox(t *testing.T) {
	box := lattice.NewBox(6, 6, 6, 2.87)
	a := Analyze(box, 2)
	if a.NumCu != 0 || a.Isolated != 0 || a.Clusters != 0 || a.MaxSize != 0 {
		t.Fatalf("pure Fe box should have no clusters: %+v", a)
	}
}

func TestSingleCu(t *testing.T) {
	box := lattice.NewBox(6, 6, 6, 2.87)
	box.Set(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Cu)
	a := Analyze(box, 2)
	if a.NumCu != 1 || a.Isolated != 1 || a.Clusters != 0 || a.MaxSize != 1 {
		t.Fatalf("single Cu should be isolated: %+v", a)
	}
	if a.Histogram[1] != 1 {
		t.Fatal("histogram wrong for single Cu")
	}
}

func TestPair1NN(t *testing.T) {
	box := lattice.NewBox(6, 6, 6, 2.87)
	box.Set(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Cu)
	box.Set(lattice.Vec{X: 5, Y: 5, Z: 5}, lattice.Cu)
	for _, shells := range []int{1, 2} {
		a := Analyze(box, shells)
		if a.Clusters != 1 || a.MaxSize != 2 || a.Isolated != 0 {
			t.Fatalf("shells=%d: 1NN pair should form one cluster: %+v", shells, a)
		}
	}
}

func TestPair2NNShellDependence(t *testing.T) {
	box := lattice.NewBox(6, 6, 6, 2.87)
	box.Set(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Cu)
	box.Set(lattice.Vec{X: 6, Y: 4, Z: 4}, lattice.Cu) // 2NN neighbour
	a1 := Analyze(box, 1)
	if a1.Clusters != 0 || a1.Isolated != 2 {
		t.Fatalf("1NN-only: 2NN pair should be isolated: %+v", a1)
	}
	a2 := Analyze(box, 2)
	if a2.Clusters != 1 || a2.MaxSize != 2 {
		t.Fatalf("with 2NN shell the pair should cluster: %+v", a2)
	}
}

func TestPeriodicWrapCluster(t *testing.T) {
	// Two Cu atoms adjacent only through the periodic boundary.
	box := lattice.NewBox(6, 6, 6, 2.87)
	box.Set(lattice.Vec{X: 0, Y: 0, Z: 0}, lattice.Cu)
	box.Set(lattice.Vec{X: 11, Y: 11, Z: 11}, lattice.Cu) // (−1,−1,−1) image
	a := Analyze(box, 1)
	if a.Clusters != 1 || a.MaxSize != 2 {
		t.Fatalf("periodic neighbours should cluster: %+v", a)
	}
}

func TestBlockCluster(t *testing.T) {
	// A 2×2×2-cell solid Cu block: 16 atoms, all connected.
	box := lattice.NewBox(8, 8, 8, 2.87)
	count := 0
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				v := lattice.Vec{X: x + 4, Y: y + 4, Z: z + 4}
				if v.IsSite() {
					box.Set(v, lattice.Cu)
					count++
				}
			}
		}
	}
	a := Analyze(box, 1)
	if a.Clusters != 1 || a.MaxSize != count || a.Isolated != 0 {
		t.Fatalf("solid block should be one cluster of %d: %+v", count, a)
	}
}

func TestHistogramAccounting(t *testing.T) {
	box := lattice.NewBox(10, 10, 10, 2.87)
	// One isolated, one pair, one triple (chain along 1NN steps).
	box.Set(lattice.Vec{X: 2, Y: 2, Z: 2}, lattice.Cu)
	box.Set(lattice.Vec{X: 8, Y: 8, Z: 8}, lattice.Cu)
	box.Set(lattice.Vec{X: 9, Y: 9, Z: 9}, lattice.Cu)
	box.Set(lattice.Vec{X: 14, Y: 2, Z: 2}, lattice.Cu)
	box.Set(lattice.Vec{X: 15, Y: 3, Z: 3}, lattice.Cu)
	box.Set(lattice.Vec{X: 16, Y: 4, Z: 2}, lattice.Cu)
	a := Analyze(box, 1)
	if a.NumCu != 6 {
		t.Fatalf("NumCu = %d", a.NumCu)
	}
	if a.Histogram[1] != 1 || a.Histogram[2] != 1 || a.Histogram[3] != 1 {
		t.Fatalf("histogram = %v", a.Histogram)
	}
	if a.Isolated != 1 || a.Clusters != 2 || a.MaxSize != 3 {
		t.Fatalf("analysis = %+v", a)
	}
}

func TestNumberDensity(t *testing.T) {
	box := lattice.NewBox(10, 10, 10, 2.87)
	box.Set(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Cu)
	box.Set(lattice.Vec{X: 5, Y: 5, Z: 5}, lattice.Cu)
	a := Analyze(box, 1)
	want := 1.0 / box.Volume()
	if a.NumberDensity != want {
		t.Fatalf("density = %v, want %v", a.NumberDensity, want)
	}
}

func TestAnalyzeInvariantUnderRandomVacancies(t *testing.T) {
	// Vacancies must not affect Cu connectivity.
	box := lattice.NewBox(8, 8, 8, 2.87)
	lattice.FillRandomAlloy(box, 0.1, 0.0, rng.New(3))
	before := Analyze(box, 2)
	// Turn some Fe atoms into vacancies.
	r := rng.New(4)
	changed := 0
	for changed < 30 {
		i := r.Intn(box.NumSites())
		if box.GetIndex(i) == lattice.Fe {
			box.Types()[i] = lattice.Vacancy
			changed++
		}
	}
	after := Analyze(box, 2)
	if before.NumCu != after.NumCu || before.Clusters != after.Clusters ||
		before.Isolated != after.Isolated || before.MaxSize != after.MaxSize {
		t.Fatalf("vacancies changed Cu clustering: %+v vs %+v", before, after)
	}
}

func TestIsolatedCuHelper(t *testing.T) {
	box := lattice.NewBox(8, 8, 8, 2.87)
	box.Set(lattice.Vec{X: 2, Y: 2, Z: 2}, lattice.Cu)
	if IsolatedCu(box) != 1 {
		t.Fatal("IsolatedCu helper wrong")
	}
}

func TestAnalyzePanicsOnBadShells(t *testing.T) {
	box := lattice.NewBox(4, 4, 4, 2.87)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Analyze(box, 3)
}

func TestMeanRadius(t *testing.T) {
	box := lattice.NewBox(8, 8, 8, 2.87)
	// A 1NN pair: each member is √3·a/4 ≈ 1.24 Å from the centroid →
	// Rg = |δ|/2 = 2.485/2.
	box.Set(lattice.Vec{X: 4, Y: 4, Z: 4}, lattice.Cu)
	box.Set(lattice.Vec{X: 5, Y: 5, Z: 5}, lattice.Cu)
	a := Analyze(box, 1)
	want := 2.87 * math.Sqrt(3) / 4 // half the 1NN distance
	if diff := a.MeanRadius - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("pair MeanRadius = %v, want %v", a.MeanRadius, want)
	}
	// Isolated atoms contribute no radius.
	box2 := lattice.NewBox(8, 8, 8, 2.87)
	box2.Set(lattice.Vec{X: 2, Y: 2, Z: 2}, lattice.Cu)
	if Analyze(box2, 1).MeanRadius != 0 {
		t.Fatal("isolated atom should give zero MeanRadius")
	}
}

func TestMeanRadiusPeriodicCluster(t *testing.T) {
	// A pair wrapped across the boundary must not be measured as
	// box-sized.
	box := lattice.NewBox(6, 6, 6, 2.87)
	box.Set(lattice.Vec{X: 0, Y: 0, Z: 0}, lattice.Cu)
	box.Set(lattice.Vec{X: 11, Y: 11, Z: 11}, lattice.Cu)
	a := Analyze(box, 1)
	if a.MeanRadius > 2 {
		t.Fatalf("periodic pair radius %v Å — unwrap failed", a.MeanRadius)
	}
}
