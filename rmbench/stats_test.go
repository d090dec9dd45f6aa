package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so the code must sort
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // ranks 91..100 lie beyond: exactly ten
		{99, 0.9, 90, false}, // nine beyond
		{110, 0.9, 99, true}, // eleven beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{10, 0.5, 5, false},
		{0, 0.9, 0, false},
	} {
		got, ok := tailPercentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d p=%v: got (%v, %v), want (%v, %v)", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
