package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 read from fewer than ten samples beyond it is one outlier's
// value, not a tail estimate.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of quantile q in n sorted
// samples: the smallest rank r with r/n ≥ q.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesFor is the smallest sample count whose nearest-rank q-quantile
// leaves at least minBeyond samples above it.
func samplesFor(q float64) int {
	n := 1
	for n-rank(q, n) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank q-quantile of sorted and fails
// when fewer than minBeyond samples lie above it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	r := rank(q, n)
	if q < 1 && n-r < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-r, n)
	}
	return sorted[r-1], nil
}

// median is the nearest-rank p50 (any sample count of 20 or more
// leaves ten above it; smaller sets are the caller's choice).
func median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(0.5, len(sorted))-1]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b with an empty denominator reading as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// residualShare is the part of the end-to-end figure that the layer self
// times do not cover: (e2e − Σ layers) / e2e.  It is computed on means,
// which add exactly, so a share of 0 means the layers account for every
// microsecond; negative means the layers were measured slower in
// isolation than the whole.
func residualShare(e2e float64, layers []float64) float64 {
	var sum float64
	for _, l := range layers {
		sum += l
	}
	return ratio(e2e-sum, e2e)
}
