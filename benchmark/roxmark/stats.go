package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p·n samples at or
// below it. Nearest rank never invents a latency no request had.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vals (mean of the two middle values for
// an even count). vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// geomean returns the geometric mean of the positive values in vals; zero
// and negative values (a class with no samples) are skipped, so one empty
// class cannot zero the whole figure.
func geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(vals, n=4)
// computes them (the "exclusive" method), which is what the driver uses to
// size a metric's run-to-run spread.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4 // may leave [0,4] after clamping: Python extrapolates too
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}
