package main

import (
	"math"
	"slices"
	"sort"
)

// tailLadder is the set of tail percentiles a timing may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 resting on two samples is an anecdote, not a tail.
const minBeyond = 10

// dist summarises a timing distribution by the benchmark's percentile
// rule: the median, plus the highest ladder percentile (capped at cap)
// with at least minBeyond samples beyond it, and the sample count. With
// too few samples for any ladder percentile the tail falls back to the
// median and TailPct reads 50.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// summarize applies the percentile rule. cap bounds the tail percentile
// (a metric named *_p99 passes 99); the input is not modified.
func summarize(samples []float64, cap float64) dist {
	n := len(samples)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: n, P50: medianSorted(s), TailPct: 50}
	d.Tail = d.P50
	for _, p := range tailLadder {
		if p > cap {
			continue
		}
		// Nearest rank, 1-based; the epsilon keeps 99.9 % of 10000 at
		// 9990 rather than one float ulp above it.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if n-rank >= minBeyond {
			d.TailPct, d.Tail = p, s[rank-1]
			break
		}
	}
	return d
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// median returns the median of the values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return medianSorted(s)
}

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(v, n=4) — the rule the acceptance
// driver applies — so a spread computed here matches the one it computes.
// Fewer than two values have no spread; both quartiles are the value.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// position k·(n+1)/4, 1-based; like Python, the index is clamped
		// but the weight is not, so tiny samples extrapolate.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// sample is one end-to-end metric over a child's timed repetitions. Best
// is the value the ledger reports: the repetitions do identical work, so
// they differ only by what the machine added, and the best of them is the
// closest the run came to the program's own cost. Median and quartiles
// say how far the rest lay from it.
type sample struct {
	Unit   string    `json:"unit"`
	Best   float64   `json:"best"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// newSample summarises values of a metric for which better ("higher" or
// "lower") is the good direction.
func newSample(unit, better string, values []float64) sample {
	q1, q3 := quartiles(values)
	s := sample{Unit: unit, Median: median(values), Q1: q1, Q3: q3, N: len(values), Values: values}
	if len(values) > 0 {
		s.Best = slices.Min(values)
		if better == "higher" {
			s.Best = slices.Max(values)
		}
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
