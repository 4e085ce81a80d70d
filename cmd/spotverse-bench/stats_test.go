package main

import (
	"math"
	"testing"
)

func TestNearestRankPercentiles(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {75, 40}, {100, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// An even count's median is the lower middle sample, a measured value.
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	q1, q2, q3 := quartiles([]float64{8, 1, 7, 2, 6, 3, 5, 4})
	if q1 != 2 || q2 != 4 || q3 != 6 {
		t.Errorf("quartiles = %v %v %v, want 2 4 6", q1, q2, q3)
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if in[0] != 3 || in[1] != 1 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want bool
	}{
		{75, 40, true},  // rank 30, 10 beyond
		{75, 39, false}, // rank 30, 9 beyond
		{99, 1000, true},
		{99, 999, false},
		{50, 20, true},
		{50, 19, false},
		{99, 0, false},
	} {
		if got := supported(tc.p, tc.n); got != tc.want {
			t.Errorf("supported(p%v, n=%d) = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}
