package spotverse

// Fleet-scale benchmarks: the fleet engine (RunFleetSharded) against
// the per-workload path (Run) on the identical configuration —
// single-region arm, standard workloads, 14-day horizon, seed 42. Two
// metrics matter:
//
//   - workloads/s — simulated workloads per wall-second at N=10k and
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
	"runtime/debug"
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

// singleRegionArm and skyPilotArm build the two fleet arms of
// `-exp fleet`. Single-region relaunches in place; skypilot re-ranks every
// offered region on each relaunch, so it alone reads the catalog in the
// event loop.
func singleRegionArm(env *experiment.Env) (strategy.Strategy, error) {
	return baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, experiment.BaselineRegionM5XLarge)
}

func skyPilotArm(env *experiment.Env) (strategy.Strategy, error) {
	return baselines.NewSkyPilotLike(env.Engine, env.Market, catalog.M5XLarge)
}

// runShardedBench executes one RunFleetSharded of n standard workloads
// under the given arm over the given shard count (sharded runs own their
// per-shard environments, so only the result survives for retention
// measurement).
func runShardedBench(n, shards int, arm func(*experiment.Env) (strategy.Strategy, error)) (*experiment.FleetResult, error) {
	f, err := workload.GenerateFleet(simclock.Stream(benchSeed, "wl-standard"),
		workload.GenOptions{Kind: workload.KindStandard, Count: n})
	if err != nil {
		return nil, err
	}
	return experiment.RunFleetSharded(benchSeed, experiment.FleetShardedConfig{
		Fleet:           f,
		NewStrategy:     arm,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
		Shards:          shards,
	})
}

func benchShardedPath(b *testing.B, n, shards int) {
	var last *experiment.FleetResult
	for i := 0; i < b.N; i++ {
		res, err := runShardedBench(n, shards, singleRegionArm)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(n)/perOp, "workloads/s")
	b.ReportMetric(retainedPerWorkload(b, n, func() (any, any, error) {
		res, err := runShardedBench(n, shards, singleRegionArm)
		return nil, res, err
	}), "retained_B/wl")
	b.ReportMetric(float64(last.Interruptions), "interruptions")
	b.ReportMetric(float64(last.Completed), "completed")
}

func BenchmarkLegacyPath1k(b *testing.B)  { benchLegacyPath(b, 1000) }
func BenchmarkLegacyPath10k(b *testing.B) { benchLegacyPath(b, 10000) }

// Sharded-engine throughput at N=10k and N=100k. A fleet is cut into
// cache-sized blocks whatever the shard count, so every shard count up
// to the block count runs the same partition; one count per size.
func BenchmarkFleetSharded10kShards1(b *testing.B)  { benchShardedPath(b, 10000, 1) }
func BenchmarkFleetSharded100kShards1(b *testing.B) { benchShardedPath(b, 100000, 1) }

// TestFleetShardedAllocBudget pins the hot-loop allocation rate of the
// sharded fleet path at N=10k with Shards 1, per arm: heap allocations
// and heap bytes per workload. At this size the run is 20 blocks, so
// the rate includes each block's set-up on a warm block arena: the
// strategy and its initial placements, the managed services, the ID
// string, and the exact-length copies of the block's output. The
// skypilot arm covers the relaunch decision's catalog reads, which
// single-region never makes. Each budget sits within 10% above what the
// engine measures on a 2-vCPU Linux host: single-region 0.080 allocs and
// 255 B, skypilot 0.090 allocs and 239 B. Each arm first runs once
// unmeasured, and the runs go on one worker on one P with the collector
// off: arenas come from a sync.Pool, which hands a goroutine only what
// was put on its own P and drops its contents across collections, so
// otherwise a run would build a cold arena by chance. Mallocs and
// TotalAlloc are process-global counters, so the assertion is skipped
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
	arms := []struct {
		name          string
		build         func(*experiment.Env) (strategy.Strategy, error)
		allocs, bytes float64
	}{
		{name: "single-region", build: singleRegionArm, allocs: 0.088, bytes: 280},
		{name: "skypilot", build: skyPilotArm, allocs: 0.099, bytes: 262},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer experiment.SetWorkers(experiment.SetWorkers(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			// Warm the shared market snapshot and the block arena.
			if _, err := runShardedBench(n, 1, arm.build); err != nil {
				t.Fatal(err)
			}
			measure := func() (allocs, bytes float64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := runShardedBench(n, 1, arm.build)
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(res)
				return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
			}
			allocs, bytes := measure()
			if a, b := measure(); a < allocs {
				allocs, bytes = a, b
			}
			t.Logf("%s: %.3f allocs and %.0f B per workload at n=%d (budgets %.3f and %.0f)", arm.name, allocs, bytes, n, arm.allocs, arm.bytes)
			if allocs > arm.allocs {
				t.Errorf("%s allocates %.3f times per workload at n=%d, want <= %.3f", arm.name, allocs, n, arm.allocs)
			}
			if bytes > arm.bytes {
				t.Errorf("%s allocates %.0f B per workload at n=%d, want <= %.0f", arm.name, bytes, n, arm.bytes)
			}
		})
	}
}

// TestFleetRetention is the memory acceptance check behind the
// benchmarks: at N=10k the fleet engine at Shards 1 must retain at
// least 5x fewer bytes per workload than the per-workload path, whose
// environment and result keep per-workload stamps and maps alive.
func TestFleetRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet retention check runs full 10k simulations")
	}
	const n = 10000
	// Warm the shared market snapshot so retention deltas exclude it.
	if _, err := runShardedBench(100, 1, singleRegionArm); err != nil {
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
		res, err := runShardedBench(n, 1, singleRegionArm)
		return nil, res, err
	})
	retRatio := slowRet / fleetRet
	t.Logf("n=%d legacy %.0f B/wl | fleet %.0f B/wl | retention ratio %.1fx", n, slowRet, fleetRet, retRatio)
	if retRatio < 5 {
		t.Errorf("fleet path retains %.0f B/wl vs legacy %.0f (ratio %.2fx), want >= 5x lower", fleetRet, slowRet, retRatio)
	}
}
