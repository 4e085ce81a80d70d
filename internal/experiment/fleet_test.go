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
	// stateful marks an arm whose decisions depend on more than the one
	// workload and the pure market: its fleet result depends on how the
	// fleet is partitioned, so it is compared only at sizes one engine
	// simulates whole.
	stateful bool
}

func fleetGoldenArms(seed int64) []fleetGoldenArm {
	return []fleetGoldenArm{
		{name: "single-region", build: singleRegion(catalog.M5XLarge, BaselineRegionM5XLarge)},
		{name: "on-demand", build: onDemand(catalog.M5XLarge)},
		{name: "skypilot", build: skyPilot(catalog.M5XLarge)},
		// naive-multi-region round-robins regions by slice position and
		// draws from one RNG shared by the whole fleet (ROADMAP item 4).
		{name: "naive-multi-region", build: naiveMultiRegion(catalog.M5XLarge, MotivationRegions, seed), stateful: true},
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
	// never completed); attempts[i] and interruptions[i] are its counters.
	completedAt   []time.Time
	attempts      []int
	interruptions []int
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
	// Instance records are reused once OnTerminate returns, so keep copies.
	var insts []cloud.Instance
	env.Provider.OnTerminate(func(inst *cloud.Instance, _ bool) { insts = append(insts, *inst) })

	res, err := Run(env, RunConfig{
		Workloads:       ws,
		Strategy:        strat,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	out := goldenRun{res: res, completedAt: make([]time.Time, n), attempts: make([]int, n), interruptions: make([]int, n)}
	for _, w := range ws {
		i := tagIndex(t, w.Spec.ID)
		if w.Completed {
			out.completedAt[i] = w.CompletedAt
		}
		out.attempts[i] = w.Attempts
		out.interruptions[i] = w.Interruptions
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i].ID.Compare(insts[j].ID) < 0 })
	sort.SliceStable(insts, func(i, j int) bool { return tagIndex(t, insts[i].Tag) < tagIndex(t, insts[j].Tag) })
	for _, inst := range insts {
		out.costs = append(out.costs, inst.CostUSD)
	}
	return out
}

// runGoldenFleet runs the same workloads through RunFleetSharded and
// returns the result with the fleet's per-workload columns.
func runGoldenFleet(t *testing.T, seed int64, arm fleetGoldenArm, n int) (*FleetResult, *workload.FleetState) {
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
	return res, f
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
// ServiceCostUSD is the one field left out. Each workload's attempts,
// interruptions and completion instant are compared too, so equal
// totals cannot hide compensating per-workload differences. N=2500 is
// more than one block, so the fleet path cuts it into several engines
// even at Shards 1; a stateful arm stops at N=200, inside one block.
func TestFleetPathBitIdenticalToSlowPath(t *testing.T) {
	const seed = 42
	for _, arm := range fleetGoldenArms(seed) {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			sizes := []int{20, 200, 2500}
			if arm.stateful {
				sizes = sizes[:2]
				if sizes[1] > fleetBlock {
					t.Fatalf("stateful arm compared at N=%d, above the %d-workload block", sizes[1], fleetBlock)
				}
			}
			for _, n := range sizes {
				n := n
				t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
					res, f := runGoldenFleet(t, seed, arm, n)
					slow := runGoldenRun(t, seed, arm, n)
					compareGolden(t, slow, res)
					compareWorkloads(t, slow, f)
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

// compareWorkloads checks every workload's counters and completion
// instant between Run's states and the fleet's columns.
func compareWorkloads(t *testing.T, slow goldenRun, f *workload.FleetState) {
	t.Helper()
	if f.Len() != len(slow.attempts) {
		t.Fatalf("fleet holds %d workloads, slow %d", f.Len(), len(slow.attempts))
	}
	for i := 0; i < f.Len(); i++ {
		if got := int(f.Attempts[i]); got != slow.attempts[i] {
			t.Errorf("workload %d: Attempts = %d, slow %d", i, got, slow.attempts[i])
		}
		if got := int(f.Interruptions[i]); got != slow.interruptions[i] {
			t.Errorf("workload %d: Interruptions = %d, slow %d", i, got, slow.interruptions[i])
		}
		var at time.Time
		if f.Completed[i] {
			at = time.Unix(0, f.CompletedAtNanos[i]).UTC()
		}
		if !at.Equal(slow.completedAt[i]) {
			t.Errorf("workload %d: completed at %v, slow %v", i, at, slow.completedAt[i])
		}
	}
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
