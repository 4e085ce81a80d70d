package experiment

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/simclock"
	"spotverse/internal/workload"
)

// fleetGoldenArm names one strategy configuration the fleet engine must
// reproduce bit-for-bit against Run.
type fleetGoldenArm struct {
	name  string
	build builder
}

func fleetGoldenArms(seed int64) []fleetGoldenArm {
	return []fleetGoldenArm{
		{name: "single-region", build: singleRegion(catalog.M5XLarge, BaselineRegionM5XLarge)},
		{name: "on-demand", build: onDemand(catalog.M5XLarge)},
		{name: "skypilot", build: skyPilot(catalog.M5XLarge)},
		{name: "naive-multi-region", build: naiveMultiRegion(catalog.M5XLarge, MotivationRegions, seed)},
	}
}

func goldenGenOptions(n int) workload.GenOptions {
	return workload.GenOptions{Kind: workload.KindStandard, Count: n}
}

// tagIndex recovers a workload's global index from its ID or instance
// tag ("<prefix>-<index>").
func tagIndex(t *testing.T, tag string) int {
	t.Helper()
	i, err := strconv.Atoi(tag[strings.LastIndexByte(tag, '-')+1:])
	if err != nil {
		t.Fatalf("tag %q carries no workload index: %v", tag, err)
	}
	return i
}

// goldenRun is what the per-workload path exposes for the comparison:
// its Result, plus the per-workload data the fleet engine reduces in
// global-index order.
type goldenRun struct {
	res *Result
	// completedAt[i] is workload i's completion instant (zero when it
	// never completed).
	completedAt []time.Time
	// costs are every instance's final cost, stable-sorted by the global
	// index of the workload it served.
	costs []float64
}

// runGoldenRun runs n standard workloads through Run with the fleet
// engine's per-workload SplitMix64 streams installed on the provider,
// so every draw a workload's trajectory takes matches the fleet run's.
func runGoldenRun(t *testing.T, seed int64, arm fleetGoldenArm, n int) goldenRun {
	t.Helper()
	env := NewEnv(seed)
	strat, err := arm.build(env)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workload.Generate(simclock.Stream(seed, "wl-standard"), goldenGenOptions(n))
	if err != nil {
		t.Fatal(err)
	}
	family := simclock.SplitMixFamily(seed, splitmixFleetStream)
	rngs := make([]simclock.SplitMix64, n)
	streams := make(map[string]*simclock.SplitMix64, n)
	for i, w := range ws {
		rngs[i] = simclock.SplitMixAt(family, tagIndex(t, w.Spec.ID))
		streams[w.Spec.ID] = &rngs[i]
	}
	env.Provider.SetWorkloadRand(func(tag string) *simclock.SplitMix64 { return streams[tag] })
	var insts []*cloud.Instance
	env.Provider.OnTerminate(func(inst *cloud.Instance, _ bool) { insts = append(insts, inst) })

	res, err := Run(env, RunConfig{
		Workloads:       ws,
		Strategy:        strat,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	out := goldenRun{res: res, completedAt: make([]time.Time, n)}
	for _, w := range ws {
		if w.Completed {
			out.completedAt[tagIndex(t, w.Spec.ID)] = w.CompletedAt
		}
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i].ID < insts[j].ID })
	sort.SliceStable(insts, func(i, j int) bool { return tagIndex(t, insts[i].Tag) < tagIndex(t, insts[j].Tag) })
	for _, inst := range insts {
		out.costs = append(out.costs, inst.CostUSD)
	}
	return out
}

func runGoldenFleet(t *testing.T, seed int64, arm fleetGoldenArm, n int) *FleetResult {
	t.Helper()
	f, err := workload.GenerateFleet(simclock.Stream(seed, "wl-standard"), goldenGenOptions(n))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleetSharded(seed, FleetShardedConfig{
		Fleet:           f,
		NewStrategy:     arm.build,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
		Shards:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFleetConservation(t, fmt.Sprintf("%s n=%d", arm.name, n), res)
	return res
}

// checkFleetConservation asserts the accounting laws every FleetResult
// obeys whatever the arm, size or shard count: per-region and
// per-interval counts sum to their totals, cost splits into instance and
// service spend, and — once every workload completed without a
// duplicate relaunch — each launch is one engine event ending in either
// a completion or an interruption.
func checkFleetConservation(t *testing.T, label string, res *FleetResult) {
	t.Helper()
	sum := func(xs []int) int {
		n := 0
		for _, x := range xs {
			n += x
		}
		return n
	}
	sumRegions := func(m map[catalog.Region]int) int {
		n := 0
		for _, x := range m {
			n += x
		}
		return n
	}
	launches := sumRegions(res.LaunchesByRegion)
	if byRegion, perInterval := sumRegions(res.InterruptionsByRegion), sum(res.InterruptionsPerInterval); byRegion != res.Interruptions || perInterval != res.Interruptions {
		t.Errorf("%s: interruptions by region %d, per interval %d, total %d", label, byRegion, perInterval, res.Interruptions)
	}
	if perInterval := sum(res.CompletionsPerInterval); perInterval != res.Completed {
		t.Errorf("%s: completions per interval %d, completed %d", label, perInterval, res.Completed)
	}
	if res.TotalCostUSD != res.InstanceCostUSD+res.ServiceCostUSD {
		t.Errorf("%s: total cost %v != instance %v + service %v", label, res.TotalCostUSD, res.InstanceCostUSD, res.ServiceCostUSD)
	}
	if res.OnDemandLaunches > launches {
		t.Errorf("%s: %d on-demand launches of %d", label, res.OnDemandLaunches, launches)
	}
	if res.PeakRunning > res.Workloads {
		t.Errorf("%s: peak running %d > %d workloads", label, res.PeakRunning, res.Workloads)
	}
	if res.MeanCompletionHours > res.MakespanHours {
		t.Errorf("%s: mean completion %vh > makespan %vh", label, res.MeanCompletionHours, res.MakespanHours)
	}
	if res.Completed == res.Workloads && res.DuplicateRelaunches == 0 {
		if uint64(launches) != res.EventsFired || launches != res.Completed+res.Interruptions {
			t.Errorf("%s: %d launches, %d events, %d completions + %d interruptions",
				label, launches, res.EventsFired, res.Completed, res.Interruptions)
		}
	}
}

// intervalHistogram buckets the slow path's retained stamps the way the
// fleet path streams them, for histogram comparison.
func intervalHistogram(stamps []time.Time, start time.Time, interval time.Duration, buckets int) []int {
	out := make([]int, buckets)
	for _, ts := range stamps {
		i := int(ts.Sub(start) / interval)
		if i > buckets-1 {
			i = buckets - 1
		}
		if i < 0 {
			i = 0
		}
		out[i]++
	}
	return out
}

// TestFleetPathBitIdenticalToSlowPath is the golden equivalence test:
// for every stateless strategy arm, the fleet engine (RunFleetSharded)
// must agree with the per-workload path (Run, given the same
// per-workload streams) on every result field Run can reproduce, to
// the exact bit. Floats are re-summed from Run's per-workload data in
// global-index order — the order the shard merge sums in. Run's
// CloudWatch-billed sweep has no counterpart on the fleet engine, so
// ServiceCostUSD is the one field left out.
func TestFleetPathBitIdenticalToSlowPath(t *testing.T) {
	const seed = 42
	for _, arm := range fleetGoldenArms(seed) {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			for _, n := range []int{20, 200} {
				n := n
				t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
					compareGolden(t, runGoldenRun(t, seed, arm, n), runGoldenFleet(t, seed, arm, n))
				})
			}
		})
	}
}

func compareGolden(t *testing.T, slow goldenRun, fleet *FleetResult) {
	t.Helper()
	want := slow.res
	if want.Completed == 0 {
		t.Fatal("the per-workload run completed nothing; the comparison would be vacuous")
	}
	if fleet.Completed != want.Completed {
		t.Errorf("Completed = %d, slow %d", fleet.Completed, want.Completed)
	}
	if fleet.Workloads != want.Workloads || fleet.StrategyName != want.StrategyName || !fleet.Start.Equal(want.Start) {
		t.Errorf("header = (%d, %q, %v), slow (%d, %q, %v)",
			fleet.Workloads, fleet.StrategyName, fleet.Start, want.Workloads, want.StrategyName, want.Start)
	}
	if fleet.Interruptions != want.Interruptions {
		t.Errorf("Interruptions = %d, slow %d", fleet.Interruptions, want.Interruptions)
	}
	if fleet.OnDemandLaunches != want.OnDemandLaunches {
		t.Errorf("OnDemandLaunches = %d, slow %d", fleet.OnDemandLaunches, want.OnDemandLaunches)
	}
	if fleet.DuplicateRelaunches != want.DuplicateRelaunches {
		t.Errorf("DuplicateRelaunches = %d, slow %d", fleet.DuplicateRelaunches, want.DuplicateRelaunches)
	}
	compareRegions(t, "LaunchesByRegion", fleet.LaunchesByRegion, want.LaunchesByRegion)
	compareRegions(t, "InterruptionsByRegion", fleet.InterruptionsByRegion, want.InterruptionsByRegion)
	if fleet.MakespanHours != want.MakespanHours {
		t.Errorf("MakespanHours = %v, slow %v (must be bit-identical)", fleet.MakespanHours, want.MakespanHours)
	}

	var sum float64
	for _, at := range slow.completedAt {
		if !at.IsZero() {
			sum += at.Sub(want.Start).Hours()
		}
	}
	if mean := sum / float64(want.Completed); fleet.MeanCompletionHours != mean {
		t.Errorf("MeanCompletionHours = %v, slow re-summed %v (must be bit-identical)", fleet.MeanCompletionHours, mean)
	}
	var cost float64
	for _, c := range slow.costs {
		cost += c
	}
	if fleet.InstanceCostUSD != cost {
		t.Errorf("InstanceCostUSD = %v, slow re-summed %v (must be bit-identical)", fleet.InstanceCostUSD, cost)
	}
	if fleet.ServiceCostUSD != 0 || fleet.TotalCostUSD != fleet.InstanceCostUSD {
		t.Errorf("ServiceCostUSD = %v, TotalCostUSD = %v; the fleet engine bills no service", fleet.ServiceCostUSD, fleet.TotalCostUSD)
	}

	buckets := len(fleet.CompletionsPerInterval)
	compareBuckets(t, "CompletionsPerInterval", fleet.CompletionsPerInterval,
		intervalHistogram(want.CompletionStamps, want.Start, fleet.Interval, buckets))
	compareBuckets(t, "InterruptionsPerInterval", fleet.InterruptionsPerInterval,
		intervalHistogram(want.InterruptionStamps, want.Start, fleet.Interval, buckets))
}

func compareRegions(t *testing.T, name string, got, want map[catalog.Region]int) {
	t.Helper()
	for r, w := range want {
		if got[r] != w {
			t.Errorf("%s[%s] = %d, slow %d", name, r, got[r], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s has %d regions, slow %d", name, len(got), len(want))
	}
}

func compareBuckets(t *testing.T, name string, got, want []int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %d, slow-derived %d", name, i, got[i], want[i])
		}
	}
}
