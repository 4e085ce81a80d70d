package experiment

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The paper repeats each experiment three times "to account for
// potential cloud performance and pricing variations" (Section 5.1.2).
// Trials runs an experiment across distinct seeds and aggregates the
// headline metrics.

// ErrNoTrials is returned for a non-positive trial count.
var ErrNoTrials = errors.New("experiment: trials must be positive")

// TrialStats summarises one metric across trials.
type TrialStats struct {
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

func statsOf(xs []float64) TrialStats {
	s := TrialStats{Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			ss += (x - s.Mean) * (x - s.Mean)
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// TrialSummary aggregates the headline metrics across trials.
type TrialSummary struct {
	Trials        int
	Interruptions TrialStats
	MakespanHours TrialStats
	TotalCostUSD  TrialStats
	// Results holds the per-trial results in seed order.
	Results []*Result
}

// Trials runs fn for seeds base, base+1, … base+n-1 and aggregates.
// Trials fan out across the worker pool (each trial builds its own Env
// from its own seed); results land in seed order regardless of worker
// count, so the summary is byte-for-byte the sequential one.
func Trials(n int, base int64, fn func(seed int64) (*Result, error)) (*TrialSummary, error) {
	if n <= 0 {
		return nil, ErrNoTrials
	}
	results, err := Gather(n, func(i int) (*Result, error) {
		seed := base + int64(i)
		// The seed label nests inside the CLI's experiment label and the
		// runner's arm label, so -cpuprofile attributes samples per
		// (experiment, seed, arm).
		res, ferr := labeled("seed", strconv.FormatInt(seed, 10), func() (*Result, error) { return fn(seed) })
		if ferr != nil {
			return nil, fmt.Errorf("trial seed %d: %w", seed, ferr)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	intr := make([]float64, 0, n)
	mk := make([]float64, 0, n)
	cost := make([]float64, 0, n)
	for _, res := range results {
		intr = append(intr, float64(res.Interruptions))
		mk = append(mk, res.MakespanHours)
		cost = append(cost, res.TotalCostUSD)
	}
	return &TrialSummary{
		Trials:        n,
		Interruptions: statsOf(intr),
		MakespanHours: statsOf(mk),
		TotalCostUSD:  statsOf(cost),
		Results:       results,
	}, nil
}
