package spotverse

// Fleet-scale benchmarks: the fleet engine (RunFleetSharded) against
// the per-workload path (Run) on the identical configuration —
// single-region arm, standard workloads, 14-day horizon, seed 42. Two
// metrics matter:
//
//   - workloads/s — simulated workloads per wall-second, the ISSUE 8
//     throughput headline, now swept over shard counts at N=10k and
//     N=100k;
//   - retained_B/wl — bytes of heap the environment plus result pin
//     per workload after the run, the streaming-aggregation memory
//     bound.
//
// Both are reported as custom benchmark metrics of `go test -bench`;
// the end-to-end fleet record is spotverse-bench (`make bench`).
// TestFleetRetention gates the second at N=10k; speed has no test gate,
// because both paths run the same provider bookkeeping and their
// wall-clock gap is no structural bar.

import (
	"runtime"
	"testing"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/experiment"
	"spotverse/internal/raceflag"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// runLegacyBench executes the identical run on the per-workload path.
func runLegacyBench(n int) (*experiment.Env, *experiment.Result, error) {
	env := experiment.NewEnv(benchSeed)
	single, err := baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, experiment.BaselineRegionM5XLarge)
	if err != nil {
		return nil, nil, err
	}
	ws, err := workload.Generate(simclock.Stream(benchSeed, "wl-standard"),
		workload.GenOptions{Kind: workload.KindStandard, Count: n})
	if err != nil {
		return nil, nil, err
	}
	res, err := experiment.Run(env, experiment.RunConfig{
		Workloads:       ws,
		Strategy:        single,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
	})
	return env, res, err
}

// retainedPerWorkload measures the heap bytes pinned per workload by a
// completed run: heap growth between a settled baseline and a settled
// post-run state with env and result still reachable. The shared market
// snapshot is warmed by the caller, so it cancels out of the delta.
func retainedPerWorkload(tb testing.TB, n int, run func() (any, any, error)) float64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	env, res, err := run()
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(env)
	runtime.KeepAlive(res)
	if retained < 0 {
		retained = 0
	}
	return retained / float64(n)
}

func benchLegacyPath(b *testing.B, n int) {
	var last *experiment.Result
	for i := 0; i < b.N; i++ {
		_, res, err := runLegacyBench(n)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(n)/perOp, "workloads/s")
	b.ReportMetric(retainedPerWorkload(b, n, func() (any, any, error) {
		env, res, err := runLegacyBench(n)
		return env, res, err
	}), "retained_B/wl")
	b.ReportMetric(float64(last.Interruptions), "interruptions")
	b.ReportMetric(float64(last.Completed), "completed")
}

// runShardedBench executes one RunFleetSharded of n standard workloads
// over the given shard count (sharded runs own their per-shard
// environments, so only the result survives for retention measurement).
func runShardedBench(n, shards int) (*experiment.FleetResult, error) {
	single := func(env *experiment.Env) (strategy.Strategy, error) {
		return baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, experiment.BaselineRegionM5XLarge)
	}
	f, err := workload.GenerateFleet(simclock.Stream(benchSeed, "wl-standard"),
		workload.GenOptions{Kind: workload.KindStandard, Count: n})
	if err != nil {
		return nil, err
	}
	return experiment.RunFleetSharded(benchSeed, experiment.FleetShardedConfig{
		Fleet:           f,
		NewStrategy:     single,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
		Shards:          shards,
	})
}

func benchShardedPath(b *testing.B, n, shards int) {
	var last *experiment.FleetResult
	for i := 0; i < b.N; i++ {
		res, err := runShardedBench(n, shards)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(n)/perOp, "workloads/s")
	b.ReportMetric(retainedPerWorkload(b, n, func() (any, any, error) {
		res, err := runShardedBench(n, shards)
		return nil, res, err
	}), "retained_B/wl")
	b.ReportMetric(float64(last.Interruptions), "interruptions")
	b.ReportMetric(float64(last.Completed), "completed")
}

func BenchmarkLegacyPath1k(b *testing.B)  { benchLegacyPath(b, 1000) }
func BenchmarkLegacyPath10k(b *testing.B) { benchLegacyPath(b, 10000) }

// Sharded-engine scaling ladder: workloads/s versus shard count at
// N=10k and N=100k. Output is byte-identical at every rung; only the
// wall clock moves.
func BenchmarkFleetSharded10kShards1(b *testing.B)  { benchShardedPath(b, 10000, 1) }
func BenchmarkFleetSharded10kShards2(b *testing.B)  { benchShardedPath(b, 10000, 2) }
func BenchmarkFleetSharded10kShards8(b *testing.B)  { benchShardedPath(b, 10000, 8) }
func BenchmarkFleetSharded100kShards1(b *testing.B) { benchShardedPath(b, 100000, 1) }
func BenchmarkFleetSharded100kShards8(b *testing.B) { benchShardedPath(b, 100000, 8) }

// TestFleetShardedAllocBudget pins the hot-loop allocation rate of the
// sharded fleet path: at N=10k on one shard, at most 33 heap
// allocations per workload — half the ~65/wl the PR 8 path spent.
// Mallocs is a process-global counter, so the assertion is skipped
// under -race (shadow-memory allocations) and takes the best of two
// runs to ride out unrelated background allocation.
func TestFleetShardedAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector allocates shadow memory; alloc budget is meaningless")
	}
	if testing.Short() {
		t.Skip("alloc budget runs full 10k simulations")
	}
	const n = 10000
	const budget = 33.0
	// Warm the shared market snapshot and the worker pool.
	if _, err := runShardedBench(100, 1); err != nil {
		t.Fatal(err)
	}
	measure := func() float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := runShardedBench(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(res)
		return float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	perWl := measure()
	if second := measure(); second < perWl {
		perWl = second
	}
	t.Logf("sharded fleet path: %.1f allocs/workload at n=%d (budget %.1f)", perWl, n, budget)
	if perWl > budget {
		t.Errorf("sharded fleet path allocates %.1f/workload at n=%d, want <= %.1f", perWl, n, budget)
	}
}

// TestFleetRetention is the memory acceptance check behind the
// benchmarks: at N=10k the fleet engine on one shard must retain at
// least 5x fewer bytes per workload than the per-workload path, whose
// environment and result keep per-workload stamps and maps alive.
func TestFleetRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet retention check runs full 10k simulations")
	}
	const n = 10000
	// Warm the shared market snapshot so retention deltas exclude it.
	if _, err := runShardedBench(100, 1); err != nil {
		t.Fatal(err)
	}
	// Best of two runs per path rides out unrelated background heap.
	measure := func(run func() (any, any, error)) float64 {
		return min(retainedPerWorkload(t, n, run), retainedPerWorkload(t, n, run))
	}
	slowRet := measure(func() (any, any, error) {
		env, res, err := runLegacyBench(n)
		return env, res, err
	})
	fleetRet := measure(func() (any, any, error) {
		res, err := runShardedBench(n, 1)
		return nil, res, err
	})
	retRatio := slowRet / fleetRet
	t.Logf("n=%d legacy %.0f B/wl | fleet %.0f B/wl | retention ratio %.1fx", n, slowRet, fleetRet, retRatio)
	if retRatio < 5 {
		t.Errorf("fleet path retains %.0f B/wl vs legacy %.0f (ratio %.2fx), want >= 5x lower", fleetRet, slowRet, retRatio)
	}
}
