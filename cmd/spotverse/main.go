// Command spotverse runs a set of workloads on the simulated multi-region
// cloud under a chosen placement strategy and reports interruptions,
// completion time and the differential cost breakdown.
//
// Usage:
//
//	spotverse [-strategy spotverse|single-region|on-demand|skypilot]
//	          [-type m5.xlarge] [-n 40] [-kind standard|checkpoint]
//	          [-threshold 5] [-regions 4] [-start ca-central-1]
//	          [-spread] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/core"
	"spotverse/internal/experiment"
	"spotverse/internal/report"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

func main() {
	var (
		strategyName = flag.String("strategy", "spotverse", "spotverse, single-region, on-demand, or skypilot")
		instanceType = flag.String("type", "m5.xlarge", "instance type")
		n            = flag.Int("n", 40, "number of parallel workloads")
		kind         = flag.String("kind", "standard", "standard (restart) or checkpoint (resume)")
		threshold    = flag.Int("threshold", 5, "SpotVerse combined-score threshold")
		maxRegions   = flag.Int("regions", 4, "SpotVerse top-R region fan-out")
		startRegion  = flag.String("start", "ca-central-1", "start region (single-region baseline; SpotVerse unless -spread)")
		spread       = flag.Bool("spread", false, "let SpotVerse spread the initial placement across top regions")
		seed         = flag.Int64("seed", 42, "simulation seed")
	)
	flag.Parse()
	if err := run(*strategyName, *instanceType, *n, *kind, *threshold, *maxRegions, *startRegion, *spread, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "spotverse:", err)
		os.Exit(1)
	}
}

func run(strategyName, instanceType string, n int, kind string, threshold, maxRegions int, startRegion string, spread bool, seed int64) error {
	it := catalog.InstanceType(instanceType)
	env := experiment.NewEnv(seed)
	if _, err := env.Catalog().Spec(it); err != nil {
		return err
	}

	wkind := workload.KindStandard
	if kind == "checkpoint" {
		wkind = workload.KindCheckpoint
	} else if kind != "standard" {
		return fmt.Errorf("unknown workload kind %q", kind)
	}
	ws, err := workload.Generate(simclock.Stream(seed, "cli-workloads"), workload.GenOptions{Kind: wkind, Count: n})
	if err != nil {
		return err
	}

	var strat strategy.Strategy
	switch strategyName {
	case "spotverse":
		// core.Config reads zero as "use the default", so 0 and negative
		// values would silently run as something else.
		if threshold < 1 {
			return fmt.Errorf("invalid -threshold %d (must be >= 1)", threshold)
		}
		if maxRegions < 1 {
			return fmt.Errorf("invalid -regions %d (must be >= 1)", maxRegions)
		}
		cfg := core.Config{InstanceType: it, Threshold: threshold, MaxRegions: maxRegions, Seed: seed}
		if !spread {
			cfg.FixedStartRegion = catalog.Region(startRegion)
		}
		strat, err = experiment.NewSpotVerse(env, cfg)
	case "single-region":
		strat, err = baselines.NewSingleRegion(env.Catalog(), it, catalog.Region(startRegion))
	case "on-demand":
		strat, err = baselines.NewOnDemand(env.Catalog(), it)
	case "skypilot":
		strat, err = baselines.NewSkyPilotLike(env.Engine, env.Market, it)
	default:
		return fmt.Errorf("unknown strategy %q", strategyName)
	}
	if err != nil {
		return err
	}

	res, err := experiment.Run(env, experiment.RunConfig{
		Workloads:    ws,
		Strategy:     strat,
		InstanceType: it,
	})
	if err != nil {
		return err
	}

	t := report.NewTable(fmt.Sprintf("%s: %d %s workloads on %s", res.StrategyName, n, wkind, it), "metric", "value")
	t.MustAddRow("completed", strconv.Itoa(res.Completed))
	t.MustAddRow("interruptions", strconv.Itoa(res.Interruptions))
	t.MustAddRow("makespan", report.F(res.MakespanHours, 2)+" h")
	t.MustAddRow("mean completion", report.F(res.MeanCompletionHours, 2)+" h")
	t.MustAddRow("instance cost", report.USD(res.InstanceCostUSD))
	t.MustAddRow("service cost", report.USD(res.ServiceCostUSD))
	t.MustAddRow("total cost", report.USD(res.TotalCostUSD))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	t2 := report.NewTable("cost breakdown", "category", "usd")
	for _, item := range res.Breakdown {
		t2.MustAddRow(string(item.Category), fmt.Sprintf("$%.4f", item.USD))
	}
	if err := t2.Render(os.Stdout); err != nil {
		return err
	}

	t3 := report.NewTable("launches and interruptions by region", "region", "launches", "interruptions")
	for _, r := range env.Catalog().Regions() {
		l := res.LaunchesByRegion[r]
		i := res.InterruptionsByRegion[r]
		if l == 0 && i == 0 {
			continue
		}
		t3.MustAddRow(string(r), strconv.Itoa(l), strconv.Itoa(i))
	}
	return t3.Render(os.Stdout)
}
