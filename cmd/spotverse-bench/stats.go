package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark trusts it as a tail estimate.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of the p-th percentile of
// n samples: the smallest rank whose share of samples at or below it is
// at least p%.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when
// empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// median is the nearest-rank 50th percentile: the lower middle sample of
// an even count, so it is always a value that was actually measured.
func median(xs []float64) float64 { return percentile(xs, 50) }

// supported reports whether the p-th percentile of n samples has at
// least minBeyond samples above it.
func supported(p float64, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// quartiles returns the nearest-rank first quartile, median and third
// quartile of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return percentile(xs, 25), percentile(xs, 50), percentile(xs, 75)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
