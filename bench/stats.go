package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported.
const minBeyond = 10

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for
// no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// tailPercentile is percentile for a reported tail. It refuses (ok =
// false) when fewer than minBeyond samples lie beyond the percentile,
// because such a tail repeats poorly from run to run.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs)-rank(len(xs), p) < minBeyond {
		return 0, false
	}
	return percentile(xs, p), true
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	return max(1, min(int(math.Ceil(p/100*float64(n))), n))
}

// quartiles returns the first quartile, median and third quartile by the
// same rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here match the ones a reader computes
// from the committed result files.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
