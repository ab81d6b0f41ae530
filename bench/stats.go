package main

import (
	"math"
	"sort"
)

// rank is the nearest-rank position (1..n) of the p-th percentile among n
// samples. The epsilon keeps p/100*n from landing a hair above a whole
// number and skipping a rank.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples; 0 for an empty set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns the samples in ascending order, leaving v alone.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank p50; for the odd round counts the bench
// uses it is the middle value.
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// midmean is the mean of the middle half of the samples.
func midmean(v []float64) float64 {
	s := sortedCopy(v)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	if len(s) == 0 {
		return 0
	}
	return sum / float64(len(s))
}

// tailPercentile picks the highest of p50, p90, p99, p99.9 and p99.99
// that still has at least ten of the n samples beyond it, so a reported
// tail is never one or two outliers. 0 means not even p50 qualifies.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		if n > 0 && n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}
