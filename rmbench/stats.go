package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile; with fewer, the percentile is an extrapolation, not a
// measurement, and is not reported.
const minTail = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the index of the nearest-rank p-quantile (0 < p <= 1)
// in a sorted sample of size n.
func nearestRank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-quantile of xs and whether it
// may be reported: at least minTail samples must lie strictly beyond its
// rank, so p90 needs 100 samples and p99 needs 1000.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	k := nearestRank(n, p)
	return sorted(xs)[k], n-1-k >= minTail
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
