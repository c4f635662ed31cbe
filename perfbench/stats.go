package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a percentile is reported only when at least
// this many samples lie above it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank returns the 1-based nearest rank of the p-th percentile of n
// samples: the smallest rank with at least p% of the samples at or below
// it. The epsilon keeps 99.9% of 10000 at 9990, not 9991.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// supported reports whether n samples carry the p-th percentile under the
// tail rule.
func supported(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// samplesFor returns the smallest sample count that supports the p-th
// percentile.
func samplesFor(p float64) int {
	n := 1
	for !supported(n, p) {
		n++
	}
	return n
}

// tailPercentile returns the highest percentile among the usual tail
// ladder that n samples support, or 0 when even the median is not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 80, 75, 70, 60, 50} {
		if supported(n, p) {
			return p
		}
	}
	return 0
}

// median returns the median of xs (mean of the two middle values for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
