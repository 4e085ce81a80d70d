package experiment

import (
	"fmt"

	"spotverse/internal/catalog"
	"spotverse/internal/core"
	"spotverse/internal/predict"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// This file implements the paper's Section 7 future-work directions as
// runnable experiments: the learning-based placement strategy evaluated
// in a market with day/time-of-week interruption seasonality, the
// EFS-vs-S3 checkpoint storage comparison, and the degraded scoring
// modes for providers that expose fewer advisor metrics.

// ExtPredictiveResult compares SpotVerse, the learning strategy, and the
// price-chasing broker in a seasonal market.
type ExtPredictiveResult struct {
	SpotVerse  *Result
	Predictive *Result
	SkyPilot   *Result
}

// ExtPredictive runs n standard workloads per strategy in a market with
// hour-of-week hazard seasonality enabled.
func ExtPredictive(seed int64, n int) (*ExtPredictiveResult, error) {
	if n <= 0 {
		n = EvalInstances
	}
	seasonal := func(b builder) builder {
		return func(env *Env) (strategy.Strategy, error) {
			env.Market.EnableSeasonality()
			return b(env)
		}
	}
	contenders := []struct {
		label string
		build builder
	}{
		{"spotverse", spotVerse(core.Config{InstanceType: catalog.M5XLarge, Threshold: 6, Seed: seed})},
		{"adaptive", func(env *Env) (strategy.Strategy, error) {
			return predict.NewAdaptive(env.Engine, env.Market, catalog.M5XLarge, predict.Config{Seed: seed})
		}},
		{"skypilot", skyPilot(catalog.M5XLarge)},
	}
	results, err := Gather(len(contenders), func(i int) (*Result, error) {
		res, err := runArm(seed, seasonal(contenders[i].build), genKind(workload.KindStandard, n),
			RunConfig{InstanceType: catalog.M5XLarge})
		if err != nil {
			return nil, fmt.Errorf("ext-predictive %s: %w", contenders[i].label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return &ExtPredictiveResult{SpotVerse: results[0], Predictive: results[1], SkyPilot: results[2]}, nil
}

// ExtCheckpointStoresResult compares S3 and EFS checkpoint storage for
// the same checkpoint fleet.
type ExtCheckpointStoresResult struct {
	S3  *Result
	EFS *Result
}

// ExtCheckpointStores runs n checkpoint workloads under SpotVerse with
// each checkpoint store.
func ExtCheckpointStores(seed int64, n int) (*ExtCheckpointStoresResult, error) {
	if n <= 0 {
		n = EvalInstances
	}
	stores := []struct {
		label string
		store CheckpointStore
	}{{"s3", CheckpointS3}, {"efs", CheckpointEFS}}
	results, err := Gather(len(stores), func(i int) (*Result, error) {
		res, err := runArm(seed, spotVerse(fig7SpotVerse(seed)), genKind(workload.KindCheckpoint, n),
			RunConfig{InstanceType: catalog.M5XLarge, CheckpointVia: stores[i].store})
		if err != nil {
			return nil, fmt.Errorf("ext-checkpoint %s: %w", stores[i].label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return &ExtCheckpointStoresResult{S3: results[0], EFS: results[1]}, nil
}

// ExtScoringModesResult holds one run per scoring degradation.
type ExtScoringModesResult struct {
	Combined      *Result
	StabilityOnly *Result
	PriceOnly     *Result
}

// ExtScoringModes runs the same fleet under AWS-style combined scoring,
// Azure-style stability-only scoring, and reliability-blind price-only
// scoring.
func ExtScoringModes(seed int64, n int) (*ExtScoringModesResult, error) {
	if n <= 0 {
		n = EvalInstances
	}
	modes := []struct {
		label     string
		mode      core.ScoringMode
		threshold int
	}{
		{"combined", core.ScoreCombined, 6},
		{"stability-only", core.ScoreStabilityOnly, 3},
		{"price-only", core.ScorePriceOnly, 1},
	}
	results, err := Gather(len(modes), func(i int) (*Result, error) {
		res, err := runArm(seed, spotVerse(core.Config{
			InstanceType: catalog.M5XLarge,
			Threshold:    modes[i].threshold,
			Scoring:      modes[i].mode,
			Seed:         seed,
		}), genKind(workload.KindStandard, n), RunConfig{InstanceType: catalog.M5XLarge})
		if err != nil {
			return nil, fmt.Errorf("ext-scoring %s: %w", modes[i].label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return &ExtScoringModesResult{Combined: results[0], StabilityOnly: results[1], PriceOnly: results[2]}, nil
}
