package experiment

import (
	"fmt"
	"time"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/core"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// This file implements one reproduction function per table and figure in
// the paper's evaluation (see DESIGN.md's per-experiment index). Every
// strategy arm runs through runArm on a fresh environment, so runs are
// isolated; each function returns structured results the report layer
// renders.

// Evaluation setup constants taken from the paper.
const (
	// EvalInstances is the per-experiment parallel workload count
	// (Section 5.2.1: 40 instances).
	EvalInstances = 40
	// MotivationInstances is the motivational experiment's count
	// (Section 2.2: 42 workloads).
	MotivationInstances = 42
	// BaselineRegionM5XLarge is the paper's single-region baseline for
	// m5.xlarge (Table 1).
	BaselineRegionM5XLarge = catalog.Region("ca-central-1")
)

// MotivationRegions is the motivational experiment's fixed region set.
var MotivationRegions = []catalog.Region{"ap-northeast-3", "ca-central-1", "eu-north-1"}

// builder constructs one strategy arm on a fresh Env.
type builder func(env *Env) (strategy.Strategy, error)

func singleRegion(t catalog.InstanceType, r catalog.Region) builder {
	return func(env *Env) (strategy.Strategy, error) { return baselines.NewSingleRegion(env.Catalog(), t, r) }
}

func naiveMultiRegion(t catalog.InstanceType, regions []catalog.Region, seed int64) builder {
	return func(env *Env) (strategy.Strategy, error) {
		return baselines.NewNaiveMultiRegion(env.Catalog(), t, regions, seed)
	}
}

func onDemand(t catalog.InstanceType) builder {
	return func(env *Env) (strategy.Strategy, error) { return baselines.NewOnDemand(env.Catalog(), t) }
}

func skyPilot(t catalog.InstanceType) builder {
	return func(env *Env) (strategy.Strategy, error) { return baselines.NewSkyPilotLike(env.Engine, env.Market, t) }
}

func spotVerse(cfg core.Config) builder {
	return func(env *Env) (strategy.Strategy, error) { return NewSpotVerse(env, cfg) }
}

// fig7SpotVerse is Fig. 7's SpotVerse: threshold 5, every workload
// starting in the single-region baseline so the two arms are comparable.
func fig7SpotVerse(seed int64) core.Config {
	return core.Config{
		InstanceType:     catalog.M5XLarge,
		Threshold:        5,
		FixedStartRegion: BaselineRegionM5XLarge,
		Seed:             seed,
	}
}

// runArm runs one strategy arm on a fresh environment: build the
// strategy, generate the workloads from the same seed, then Run with
// cfg's remaining fields.
func runArm(seed int64, b builder, gen func(int64) ([]*workload.State, error), cfg RunConfig) (*Result, error) {
	env := NewEnv(seed)
	s, err := b(env)
	if err != nil {
		return nil, err
	}
	ws, err := gen(seed)
	if err != nil {
		return nil, err
	}
	cfg.Strategy, cfg.Workloads = s, ws
	return Run(env, cfg)
}

// genKind generates n standard or checkpoint workloads.
func genKind(kind workload.Kind, n int) func(int64) ([]*workload.State, error) {
	return func(seed int64) ([]*workload.State, error) {
		if kind == workload.KindCheckpoint {
			return genCheckpoint(seed, n)
		}
		return genStandard(seed, n)
	}
}

func genStandard(seed int64, n int) ([]*workload.State, error) {
	return workload.Generate(simclock.Stream(seed, "wl-standard"),
		workload.GenOptions{Kind: workload.KindStandard, Count: n})
}

func genCheckpoint(seed int64, n int) ([]*workload.State, error) {
	return workload.Generate(simclock.Stream(seed, "wl-checkpoint"),
		workload.GenOptions{
			Kind:  workload.KindCheckpoint,
			Count: n,
			// Resuming re-downloads the 1 GB dataset, restarts Galaxy and
			// reinstalls tools (Section 4), which dominates the paper's
			// resume path.
			ResumeOverhead: 15 * time.Minute,
		})
}

// ---------------------------------------------------------------------
// Figure 2: spot price diversity across instance types and regions/AZs.
// ---------------------------------------------------------------------

// Fig2Types are the four representative instance types of Figure 2.
var Fig2Types = []catalog.InstanceType{
	catalog.C52XLarge, catalog.M52XLarge, catalog.R52XLarge, catalog.P32XLarge,
}

// Fig2Series is one (type, AZ) price trace summary.
type Fig2Series struct {
	Type   catalog.InstanceType
	AZ     catalog.AZ
	Points []market.PricePoint
	Mean   float64
	Min    float64
	Max    float64
}

// Fig2 samples Days of spot price history for the four instance types
// across every offering AZ.
func Fig2(seed int64, days int) ([]Fig2Series, error) {
	if days <= 0 {
		days = 90
	}
	env := NewEnv(seed)
	from := env.Engine.Now()
	to := from.Add(time.Duration(days) * 24 * time.Hour)
	var out []Fig2Series
	for _, t := range Fig2Types {
		for _, r := range env.Catalog().OfferedRegions(t) {
			for _, az := range env.Catalog().Zones(r) {
				pts, err := env.Market.PriceHistory(t, az, from, to, 24*time.Hour)
				if err != nil {
					return nil, fmt.Errorf("fig2 %s/%s: %w", t, az, err)
				}
				s := Fig2Series{Type: t, AZ: az, Points: pts, Min: pts[0].USDPerHour, Max: pts[0].USDPerHour}
				var sum float64
				for _, p := range pts {
					sum += p.USDPerHour
					if p.USDPerHour < s.Min {
						s.Min = p.USDPerHour
					}
					if p.USDPerHour > s.Max {
						s.Max = p.USDPerHour
					}
				}
				s.Mean = sum / float64(len(pts))
				out = append(out, s)
			}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 3: motivational single- vs naive multi-region comparison.
// ---------------------------------------------------------------------

// Fig3Result compares the two deployments for one workload kind.
type Fig3Result struct {
	Kind          workload.Kind
	Single        *Result
	Multi         *Result
	CostSaving    float64 // 1 - multi/single
	TimeSaving    float64 // 1 - multi/single (makespan)
	InterruptDrop float64 // 1 - multi/single
}

// Fig3 runs the motivational experiment: 42 m5.xlarge workloads,
// single-region ca-central-1 vs naive multi-region over the fixed
// three-region set, for standard and checkpoint workloads. The two kinds
// run on the worker pool (each builds its own envs) and are collected in
// the original order.
func Fig3(seed int64) ([]Fig3Result, error) {
	kinds := []workload.Kind{workload.KindStandard, workload.KindCheckpoint}
	return Gather(len(kinds), func(i int) (Fig3Result, error) {
		kind := kinds[i]
		gen := genKind(kind, MotivationInstances)
		cfg := RunConfig{InstanceType: catalog.M5XLarge}
		resS, err := runArm(seed, singleRegion(catalog.M5XLarge, BaselineRegionM5XLarge), gen, cfg)
		if err != nil {
			return Fig3Result{}, fmt.Errorf("fig3 single %s: %w", kind, err)
		}
		resM, err := runArm(seed, naiveMultiRegion(catalog.M5XLarge, MotivationRegions, seed), gen, cfg)
		if err != nil {
			return Fig3Result{}, fmt.Errorf("fig3 multi %s: %w", kind, err)
		}
		return Fig3Result{
			Kind:          kind,
			Single:        resS,
			Multi:         resM,
			CostSaving:    1 - resM.TotalCostUSD/resS.TotalCostUSD,
			TimeSaving:    1 - resM.MakespanHours/resS.MakespanHours,
			InterruptDrop: 1 - float64(resM.Interruptions)/float64(max(resS.Interruptions, 1)),
		}, nil
	})
}

// ---------------------------------------------------------------------
// Figure 4: Interruption Frequency and Spot Placement Score dynamics.
// ---------------------------------------------------------------------

// Fig4Heatmap is the per-region Interruption Frequency series for
// m5.2xlarge (Fig. 4a).
type Fig4Heatmap struct {
	Region catalog.Region
	// Daily frequencies over the horizon.
	Frequencies []float64
}

// Fig4Averages is the cross-region average Stability Score and SPS
// series per instance type (Figs. 4b, 4c).
type Fig4Averages struct {
	Type catalog.InstanceType
	// Day d's averages across offering regions.
	AvgStability []float64
	AvgSPS       []float64
}

// Fig4 samples days of advisor history: the m5.2xlarge IF heatmap plus
// six-month average score trajectories for c5/m5/p3 2xlarge.
func Fig4(seed int64, days int) ([]Fig4Heatmap, []Fig4Averages, error) {
	if days <= 0 {
		days = 180
	}
	env := NewEnv(seed)
	start := env.Engine.Now()

	var heat []Fig4Heatmap
	for _, r := range env.Catalog().OfferedRegions(catalog.M52XLarge) {
		h := Fig4Heatmap{Region: r, Frequencies: make([]float64, 0, days)}
		for d := 0; d < days; d++ {
			f, err := env.Market.InterruptionFrequency(catalog.M52XLarge, r, start.Add(time.Duration(d)*24*time.Hour))
			if err != nil {
				return nil, nil, err
			}
			h.Frequencies = append(h.Frequencies, f)
		}
		heat = append(heat, h)
	}

	types := []catalog.InstanceType{catalog.C52XLarge, catalog.M52XLarge, catalog.P32XLarge}
	var avgs []Fig4Averages
	for _, t := range types {
		a := Fig4Averages{Type: t}
		regions := env.Catalog().OfferedRegions(t)
		for d := 0; d < days; d++ {
			at := start.Add(time.Duration(d) * 24 * time.Hour)
			var stabSum float64
			var spsSum float64
			for _, r := range regions {
				st, err := env.Market.StabilityScore(t, r, at)
				if err != nil {
					return nil, nil, err
				}
				sps, err := env.Market.PlacementScoreLatent(t, r, at)
				if err != nil {
					return nil, nil, err
				}
				stabSum += float64(st)
				spsSum += sps
			}
			a.AvgStability = append(a.AvgStability, stabSum/float64(len(regions)))
			a.AvgSPS = append(a.AvgSPS, spsSum/float64(len(regions)))
		}
		avgs = append(avgs, a)
	}
	return heat, avgs, nil
}

// ---------------------------------------------------------------------
// Figure 7: main comparison, standard + checkpoint workloads.
// ---------------------------------------------------------------------

// Fig7Result holds the three-way comparison for one workload kind.
type Fig7Result struct {
	Kind      workload.Kind
	Single    *Result
	SpotVerse *Result
	// OnDemandCostUSD is the comparator cost of running the same
	// workloads on the cheapest on-demand instances.
	OnDemandCostUSD float64
}

// Fig7 runs the paper's headline experiment: 40 m5.xlarge workloads
// starting in ca-central-1, single-region vs SpotVerse (which migrates
// per Algorithm 1; initial spread disabled for fair comparison), for
// standard and checkpoint workloads, plus the on-demand cost comparator.
func Fig7(seed int64) ([]Fig7Result, error) {
	kinds := []workload.Kind{workload.KindStandard, workload.KindCheckpoint}
	return Gather(len(kinds), func(i int) (Fig7Result, error) {
		kind := kinds[i]
		gen := genKind(kind, EvalInstances)
		cfg := RunConfig{InstanceType: catalog.M5XLarge}
		resS, err := runArm(seed, singleRegion(catalog.M5XLarge, BaselineRegionM5XLarge), gen, cfg)
		if err != nil {
			return Fig7Result{}, fmt.Errorf("fig7 single %s: %w", kind, err)
		}
		resV, err := runArm(seed, spotVerse(fig7SpotVerse(seed)), gen, cfg)
		if err != nil {
			return Fig7Result{}, fmt.Errorf("fig7 spotverse %s: %w", kind, err)
		}
		resO, err := runArm(seed, onDemand(catalog.M5XLarge), gen, cfg)
		if err != nil {
			return Fig7Result{}, fmt.Errorf("fig7 on-demand %s: %w", kind, err)
		}
		return Fig7Result{Kind: kind, Single: resS, SpotVerse: resV, OnDemandCostUSD: resO.TotalCostUSD}, nil
	})
}

// Fig7TrialSingle runs one single-region trial of the Fig. 7 standard
// setup for a seed (used by the repeated-trials protocol).
func Fig7TrialSingle(seed int64) (*Result, error) {
	return runArm(seed, singleRegion(catalog.M5XLarge, BaselineRegionM5XLarge),
		genKind(workload.KindStandard, EvalInstances), RunConfig{InstanceType: catalog.M5XLarge})
}

// Fig7TrialSpotVerse runs one SpotVerse trial of the Fig. 7 standard
// setup for a seed.
func Fig7TrialSpotVerse(seed int64) (*Result, error) {
	return runArm(seed, spotVerse(fig7SpotVerse(seed)),
		genKind(workload.KindStandard, EvalInstances), RunConfig{InstanceType: catalog.M5XLarge})
}

// ---------------------------------------------------------------------
// Figure 8: instance types and sizes.
// ---------------------------------------------------------------------

// Fig8Row compares single-region vs SpotVerse for one instance type.
type Fig8Row struct {
	Type           catalog.InstanceType
	BaselineRegion catalog.Region
	Single         *Result
	SpotVerse      *Result
	// OnDemandCostUSD is the cheapest-on-demand comparator.
	OnDemandCostUSD float64
}

// Fig8TypeSet is the paper's similar-spec type comparison.
var Fig8TypeSet = []catalog.InstanceType{catalog.M52XLarge, catalog.C52XLarge, catalog.R52XLarge}

// Fig8SizeSet is the paper's m5 family size comparison.
var Fig8SizeSet = []catalog.InstanceType{catalog.M5Large, catalog.M5XLarge, catalog.M52XLarge}

// Fig8 runs the standard general workload over the given instance types,
// each starting in its Table 1 baseline region. Types fan out across the
// worker pool; rows come back in the input order.
func Fig8(seed int64, types []catalog.InstanceType) ([]Fig8Row, error) {
	return Gather(len(types), func(i int) (Fig8Row, error) {
		t := types[i]
		// Table 1: the baseline region is the cheapest spot region over
		// the opening weeks.
		probe := NewEnv(seed)
		baseRegion, _, err := probe.Market.CheapestSpotRegion(t, probe.Engine.Now(), probe.Engine.Now().Add(14*24*time.Hour))
		if err != nil {
			return Fig8Row{}, err
		}

		gen := genKind(workload.KindStandard, EvalInstances)
		cfg := RunConfig{InstanceType: t}
		resS, err := runArm(seed, singleRegion(t, baseRegion), gen, cfg)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 single %s: %w", t, err)
		}
		resV, err := runArm(seed, spotVerse(core.Config{
			InstanceType:     t,
			Threshold:        5,
			FixedStartRegion: baseRegion,
			Seed:             seed,
		}), gen, cfg)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 spotverse %s: %w", t, err)
		}
		resO, err := runArm(seed, onDemand(t), gen, cfg)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 on-demand %s: %w", t, err)
		}
		return Fig8Row{
			Type:            t,
			BaselineRegion:  baseRegion,
			Single:          resS,
			SpotVerse:       resV,
			OnDemandCostUSD: resO.TotalCostUSD,
		}, nil
	})
}

// ---------------------------------------------------------------------
// Figure 9: initial workload distribution strategy.
// ---------------------------------------------------------------------

// Fig9Result compares fixed-start vs spread-start SpotVerse for one
// workload kind.
type Fig9Result struct {
	Kind       workload.Kind
	FixedStart *Result
	Spread     *Result
}

// Fig9 measures what Algorithm 1's initial distribution buys: SpotVerse
// starting everything in ca-central-1 (the Fig. 7 configuration) versus
// SpotVerse spreading round-robin across the four top-scoring regions
// (threshold 6: us-west-1, ap-northeast-3, eu-west-1, eu-north-1).
func Fig9(seed int64) ([]Fig9Result, error) {
	kinds := []workload.Kind{workload.KindStandard, workload.KindCheckpoint}
	return Gather(len(kinds), func(i int) (Fig9Result, error) {
		kind := kinds[i]
		run := func(cfg core.Config) (*Result, error) {
			return runArm(seed, spotVerse(cfg), genKind(kind, EvalInstances), RunConfig{InstanceType: catalog.M5XLarge})
		}
		fixed, err := run(fig7SpotVerse(seed))
		if err != nil {
			return Fig9Result{}, fmt.Errorf("fig9 fixed %s: %w", kind, err)
		}
		spread, err := run(core.Config{
			InstanceType: catalog.M5XLarge,
			Threshold:    6,
			Seed:         seed,
		})
		if err != nil {
			return Fig9Result{}, fmt.Errorf("fig9 spread %s: %w", kind, err)
		}
		return Fig9Result{Kind: kind, FixedStart: fixed, Spread: spread}, nil
	})
}

// ---------------------------------------------------------------------
// Figure 10 + Tables 2/3: threshold-based allocation.
// ---------------------------------------------------------------------

// Fig10Cell is one (threshold, duration) observation.
type Fig10Cell struct {
	Threshold     int
	DurationHours int
	SpotVerse     *Result
	// OnDemandCostUSD is the cheapest-on-demand comparator for the same
	// duration and fleet size.
	OnDemandCostUSD float64
	// NormalizedCost is SpotVerse total / on-demand total (< 1 saves).
	NormalizedCost float64
}

// Fig10Thresholds and Fig10Durations mirror Table 2.
var (
	Fig10Thresholds = []int{4, 5, 6}
	Fig10Durations  = []int{5, 10, 20}
)

// Fig10 sweeps score thresholds and workload durations with the bucket
// selection the paper's Table 3 grouping implies, reporting cost
// normalized against cheapest on-demand. The (threshold, duration) cells
// are the sweep's heaviest independent units — threshold-4 cells simulate
// 90-day horizons — so they all fan out across the worker pool and come
// back in sweep order.
func Fig10(seed int64) ([]Fig10Cell, error) {
	type comb struct{ threshold, hours int }
	var combs []comb
	for _, threshold := range Fig10Thresholds {
		for _, hours := range Fig10Durations {
			combs = append(combs, comb{threshold, hours})
		}
	}
	return Gather(len(combs), func(i int) (Fig10Cell, error) {
		threshold, hours := combs[i].threshold, combs[i].hours
		gen := func(s int64) ([]*workload.State, error) {
			return workload.Generate(simclock.Stream(s, "wl-fig10"), workload.GenOptions{
				Kind:        workload.KindStandard,
				Count:       EvalInstances,
				MinDuration: time.Duration(hours) * time.Hour,
				MaxDuration: time.Duration(hours) * time.Hour,
			})
		}
		res, err := runArm(seed, spotVerse(core.Config{
			InstanceType: catalog.M5XLarge,
			Threshold:    threshold,
			Selection:    core.SelectBucket,
			Seed:         seed,
		}), gen, RunConfig{
			InstanceType: catalog.M5XLarge,
			// Threshold-4 cells restart long workloads in unstable
			// regions many times over; give the geometric tail room.
			Horizon:   90 * 24 * time.Hour,
			ProfLabel: fmt.Sprintf("spotverse T=%d D=%dh", threshold, hours),
		})
		if err != nil {
			return Fig10Cell{}, fmt.Errorf("fig10 T=%d D=%dh: %w", threshold, hours, err)
		}
		resO, err := runArm(seed, onDemand(catalog.M5XLarge), gen, RunConfig{InstanceType: catalog.M5XLarge})
		if err != nil {
			return Fig10Cell{}, fmt.Errorf("fig10 on-demand D=%dh: %w", hours, err)
		}
		return Fig10Cell{
			Threshold:       threshold,
			DurationHours:   hours,
			SpotVerse:       res,
			OnDemandCostUSD: resO.TotalCostUSD,
			NormalizedCost:  res.TotalCostUSD / resO.TotalCostUSD,
		}, nil
	})
}

// Table3Selection reports the regions the optimizer selects per
// threshold under bucket selection (Table 3).
func Table3Selection(seed int64) (map[int][]catalog.Region, error) {
	out := make(map[int][]catalog.Region, len(Fig10Thresholds))
	for _, threshold := range Fig10Thresholds {
		env := NewEnv(seed)
		sv, err := NewSpotVerse(env, core.Config{
			InstanceType: catalog.M5XLarge,
			Threshold:    threshold,
			Selection:    core.SelectBucket,
			Seed:         seed,
		})
		if err != nil {
			return nil, err
		}
		top, err := sv.Optimizer().TopRegions(nil)
		if err != nil {
			return nil, err
		}
		out[threshold] = top
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Table 1: baseline (cheapest spot) regions per type.
// ---------------------------------------------------------------------

// Table1Row is one baseline-region entry.
type Table1Row struct {
	Type   catalog.InstanceType
	Region catalog.Region
	// AvgSpotUSD is the time-averaged regional spot price.
	AvgSpotUSD float64
}

// Table1Types are the instance types the paper's Table 1 lists.
var Table1Types = []catalog.InstanceType{
	catalog.M5Large, catalog.M5XLarge, catalog.M52XLarge, catalog.R52XLarge, catalog.C52XLarge,
}

// Table1 computes the cheapest spot region per type over the opening two
// weeks.
func Table1(seed int64) ([]Table1Row, error) {
	env := NewEnv(seed)
	from := env.Engine.Now()
	to := from.Add(14 * 24 * time.Hour)
	out := make([]Table1Row, 0, len(Table1Types))
	for _, t := range Table1Types {
		r, price, err := env.Market.CheapestSpotRegion(t, from, to)
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Row{Type: t, Region: r, AvgSpotUSD: price})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Table 4: SpotVerse vs SkyPilot.
// ---------------------------------------------------------------------

// Table4Result is the head-to-head comparison.
type Table4Result struct {
	SpotVerse *Result
	SkyPilot  *Result
}

// Table4 runs 40 standard general workloads under SpotVerse (spread
// start, threshold 6) and under the SkyPilot-style cheapest-price broker.
// The two contenders run concurrently on separate environments.
func Table4(seed int64) (*Table4Result, error) {
	contenders := []struct {
		label string
		build builder
	}{
		{"spotverse", spotVerse(core.Config{InstanceType: catalog.M5XLarge, Threshold: 6, Seed: seed})},
		{"skypilot", skyPilot(catalog.M5XLarge)},
	}
	results, err := Gather(len(contenders), func(i int) (*Result, error) {
		res, err := runArm(seed, contenders[i].build, genKind(workload.KindStandard, EvalInstances),
			RunConfig{InstanceType: catalog.M5XLarge})
		if err != nil {
			return nil, fmt.Errorf("table4 %s: %w", contenders[i].label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table4Result{SpotVerse: results[0], SkyPilot: results[1]}, nil
}
