package core

import (
	"cmp"
	"fmt"
	"slices"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

// Optimizer implements Algorithm 1's region selection over the Monitor's
// collected metrics.
type Optimizer struct {
	cfg  Config
	deps Deps
	mon  *Monitor
	rng  *simclock.RNG
}

func newOptimizer(cfg Config, deps Deps, mon *Monitor, rng *simclock.RNG) *Optimizer {
	return &Optimizer{cfg: cfg, deps: deps, mon: mon, rng: rng}
}

// RegionScore is one scored candidate.
type RegionScore struct {
	Region catalog.Region
	// Combined is PlacementScore + StabilityScore.
	Combined int
	// SpotPriceUSD is the region's current spot price.
	SpotPriceUSD float64
}

// ScoreRegions returns every offering region with its combined score and
// price (Algorithm 1's ScoreRegions). In degraded mode
// (Config.DiscountStale) — the Monitor's collector silenced and
// snapshots aging — scores are discounted by snapshot age (StaleAfter)
// and regions past StaleCutoff are dropped outright; when everything
// ages out, the empty result engages the on-demand fallback downstream.
func (o *Optimizer) ScoreRegions() ([]RegionScore, error) {
	entries, err := o.mon.LatestAged()
	if err != nil {
		return nil, err
	}
	now := o.deps.Engine.Now()
	out := make([]RegionScore, 0, len(entries))
	for _, e := range entries {
		age := now.Sub(e.CollectedAt)
		if o.cfg.DiscountStale && age > StaleCutoff {
			continue
		}
		score := e.CombinedScore
		switch o.cfg.Scoring {
		case ScoreStabilityOnly:
			score = e.StabilityScore
		case ScorePriceOnly:
			// Every region passes any threshold; the price sort decides.
			score = 1 << 20
		}
		if o.cfg.DiscountStale && age > StaleAfter {
			score -= int(age / StaleAfter)
		}
		out = append(out, RegionScore{
			Region:       e.Region,
			Combined:     score,
			SpotPriceUSD: e.SpotPriceUSD,
		})
	}
	slices.SortFunc(out, func(a, b RegionScore) int { return cmp.Compare(a.Region, b.Region) })
	return out, nil
}

// SelectRegions filters scored regions by the configured threshold and
// mode (Algorithm 1's SelectRegions).
func (o *Optimizer) SelectRegions(scores []RegionScore) []RegionScore {
	out := make([]RegionScore, 0, len(scores))
	for _, s := range scores {
		switch o.cfg.Selection {
		case SelectBucket:
			if s.Combined == o.cfg.Threshold {
				out = append(out, s)
			}
		default:
			if s.Combined >= o.cfg.Threshold {
				out = append(out, s)
			}
		}
	}
	return out
}

// TopRegions runs the full pipeline: score, filter, price-sort ascending,
// take the top R, excluding any regions in exclude. An empty result means
// the on-demand fallback should engage.
func (o *Optimizer) TopRegions(exclude map[catalog.Region]bool) ([]catalog.Region, error) {
	scores, err := o.ScoreRegions()
	if err != nil {
		return nil, err
	}
	selected := o.SelectRegions(scores)
	filtered := selected[:0]
	for _, s := range selected {
		if !exclude[s.Region] {
			filtered = append(filtered, s)
		}
	}
	slices.SortStableFunc(filtered, func(a, b RegionScore) int {
		return cmp.Compare(a.SpotPriceUSD, b.SpotPriceUSD)
	})
	n := o.cfg.MaxRegions
	if n > len(filtered) {
		n = len(filtered)
	}
	out := make([]catalog.Region, 0, n)
	for _, s := range filtered[:n] {
		out = append(out, s.Region)
	}
	return out, nil
}

// CheapestOnDemand returns the region with the lowest on-demand price
// for the managed instance type (Algorithm 1's CheapestOnDemand).
func (o *Optimizer) CheapestOnDemand() (catalog.Region, error) {
	r, _, err := o.deps.Market.Catalog().CheapestOnDemand(o.cfg.InstanceType)
	if err != nil {
		return "", fmt.Errorf("optimizer: %w", err)
	}
	return r, nil
}

// Replace picks the migration target for a workload interrupted in
// current: a random region among the top R excluding current; if none
// qualify, the cheapest on-demand region (unless fallback is disabled,
// in which case the interrupted region itself is retried on spot).
func (o *Optimizer) Replace(current catalog.Region) (strategy.Placement, error) {
	top, err := o.TopRegions(map[catalog.Region]bool{current: true})
	if err != nil {
		return strategy.Placement{}, err
	}
	if len(top) == 0 {
		if o.cfg.DisableOnDemandFallback {
			return strategy.Placement{Region: current, Lifecycle: cloud.LifecycleSpot}, nil
		}
		od, err := o.CheapestOnDemand()
		if err != nil {
			return strategy.Placement{}, err
		}
		return strategy.Placement{Region: od, Lifecycle: cloud.LifecycleOnDemand}, nil
	}
	pick := top[0]
	if o.cfg.Migration != PickCheapest {
		pick = simclock.Pick(o.rng, top)
	}
	return strategy.Placement{Region: pick, Lifecycle: cloud.LifecycleSpot}, nil
}
