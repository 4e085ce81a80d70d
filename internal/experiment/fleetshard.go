package experiment

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// DefaultFleetInterval is the bucket width of the streaming completion
// and interruption histograms.
const DefaultFleetInterval = time.Hour

// FleetResult aggregates one fleet run. Headline metrics carry the
// same values the per-workload Result would report; per-workload
// series are replaced by fixed-interval aggregates, so the result is
// O(horizon/interval) regardless of fleet size.
type FleetResult struct {
	StrategyName string
	InstanceType catalog.InstanceType
	Workloads    int
	Completed    int

	Interruptions         int
	InterruptionsByRegion map[catalog.Region]int

	MakespanHours       float64
	MeanCompletionHours float64

	LaunchesByRegion map[catalog.Region]int
	OnDemandLaunches int

	InstanceCostUSD float64
	ServiceCostUSD  float64
	TotalCostUSD    float64

	Start time.Time

	DuplicateRelaunches int

	// Interval is the histogram bucket width; bucket i counts events in
	// [Start+i*Interval, Start+(i+1)*Interval), with the final bucket
	// absorbing anything at or past the horizon.
	Interval                 time.Duration
	CompletionsPerInterval   []int
	InterruptionsPerInterval []int

	// PeakRunning is the high-water mark of concurrently running
	// registered instances; EventsFired counts engine events executed.
	PeakRunning int
	EventsFired uint64
}

// splitmixFleetStream names the per-workload draw family. Workload i's
// trajectory draws come from SplitMixAt(SplitMixFamily(seed, name), i),
// so the stream is a pure function of (seed, global index) — the
// property that makes shard boundaries invisible.
const splitmixFleetStream = "fleet-wl"

// FleetShardedConfig parameterises a fleet run. It mirrors RunConfig
// minus what is inherently per-workload (the structured Timeline, the
// checkpoint and durability options), with two deliberate
// differences: the strategy is built per shard (each shard owns an Env,
// and strategies hold an engine/market handle), and there is no sweep
// option — the driver always runs its own per-shard sweep.
type FleetShardedConfig struct {
	// Fleet holds the workloads in struct-of-arrays form (mutated by the
	// run).
	Fleet *workload.FleetState
	// NewStrategy builds one strategy instance per shard over that
	// shard's Env. The fleet arms are per-workload stateless — decisions
	// depend only on the pure market at the decision instant — which is
	// what lets per-shard instances behave identically to one shared one.
	NewStrategy func(env *Env) (strategy.Strategy, error)
	// InstanceType used by every workload.
	InstanceType catalog.InstanceType
	// Horizon caps simulated time (default 14 days).
	Horizon time.Duration
	// AllowIncomplete tolerates unfinished workloads at the horizon.
	AllowIncomplete bool
	// Shards is the number of contiguous fleet partitions (default 1).
	// Each shard gets its own engine and provider and runs on the worker
	// pool; the merged result is byte-identical at every shard count.
	Shards int
	// ProfLabel names the run's pprof "arm" label.
	ProfLabel string
}

// RunFleetSharded executes a fleet-scale experiment partitioned across
// independent shard engines. The fleet's SoA columns are split into
// contiguous [lo, hi) views (workload.ShardBounds); each shard gets a
// fresh Env over the shared immutable market snapshot, a horizon
// sentinel, and per-workload SplitMix64 draw streams keyed by global
// index; shards run concurrently on the bounded worker pool; and the
// per-shard streaming aggregates merge under order-canonical rules
// (sorted cost log, sorted launch/stop logs, index-ordered completion
// stats). Every quantity in the result is a function of per-workload
// trajectories plus a canonical reduction, and each trajectory is a
// pure function of (seed, global index, market) — so the output is
// byte-identical at any shard count and any worker count.
//
// For the stateless baseline arms, with the same per-workload streams
// installed on Run's provider (cloud.SetWorkloadRand), every trajectory
// equals Run's; the golden test pins that. The one intentional difference from Run: the
// 15-minute open-request sweep is self-scheduled on each shard engine
// rather than billed through CloudWatch, because per-shard tick counts
// vary with the shard count and their billing would leak into
// ServiceCostUSD. Standard workloads use no other billed service, so
// ServiceCostUSD is zero on this path.
func RunFleetSharded(seed int64, cfg FleetShardedConfig) (*FleetResult, error) {
	if cfg.Fleet == nil || cfg.Fleet.Len() == 0 {
		return nil, ErrNoWorkloads
	}
	if cfg.NewStrategy == nil {
		return nil, ErrNoStrategy
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon
	}

	n := cfg.Fleet.Len()
	family := simclock.SplitMixFamily(seed, splitmixFleetStream)
	outs, err := Gather(cfg.Shards, func(k int) (*shardOut, error) {
		lo, hi := workload.ShardBounds(n, cfg.Shards, k)
		if lo == hi {
			return &shardOut{}, nil
		}
		return labeled("arm", cfg.ProfLabel, func() (*shardOut, error) {
			return runFleetShard(seed, family, &cfg, cfg.Fleet.Shard(lo, hi))
		})
	})
	if err != nil {
		return nil, err
	}
	return mergeShards(&cfg, outs)
}

// shardOut is one shard's contribution to the merged FleetResult: the
// driver's tally, the shard's cost log, and its count of per-workload
// engine events. Everything here is either a per-workload quantity or
// reduced under a shard-count-invariant rule by mergeShards.
type shardOut struct {
	tally
	strategyName string
	startNs      int64

	// interruptionsPerInterval is the shard's interruption histogram.
	interruptionsPerInterval []int
	// costLog records (global index, final cost) per terminated
	// instance, in termination order — which within one workload is
	// shard-count-invariant. The merge stable-sorts by index and sums.
	costLog []indexedCost

	// firedAdj is the shard's engine events minus the engine-shape
	// bookkeeping (sweep ticks, the horizon sentinel, batched-fulfill
	// buckets) whose counts depend on how the fleet was partitioned.
	// What remains — completions, notices, reclaims, price events — is
	// per-workload and shard-count-invariant.
	firedAdj uint64

	serviceCostUSD float64
}

// indexedCost is one terminated instance's cost, keyed by the global
// index of the workload it served.
type indexedCost struct {
	gidx int
	usd  float64
}

func runFleetShard(seed int64, family uint64, cfg *FleetShardedConfig, f *workload.FleetState) (*shardOut, error) {
	env := NewEnv(seed)
	eng := env.Engine
	start := eng.Now()
	horizon := start.Add(cfg.Horizon)

	// The sentinel is scheduled before anything else, so it holds the
	// smallest sequence number of the run: any event landing exactly on
	// the horizon loses the same-instant tie to it and never executes,
	// at every shard count.
	sentinelFired := uint64(0)
	if _, serr := eng.ScheduleAt(horizon, "fleet-horizon", func() { sentinelFired++ }); serr != nil {
		return nil, serr
	}

	prov := env.Provider
	prov.SetEventHorizon(horizon)

	// Per-workload draw streams, resolved by tag; tags outside this shard
	// (there are none in practice) fall back to the provider's sequential
	// stream.
	n := f.Len()
	index := shardTags{base: f.Base, n: n}.index
	rngs := make([]simclock.SplitMix64, n)
	for i := range rngs {
		rngs[i] = simclock.SplitMixAt(family, f.Base+i)
	}
	prov.SetWorkloadRand(func(tag string) *simclock.SplitMix64 {
		i, ok := index(tag)
		if !ok {
			return nil
		}
		return &rngs[i]
	})

	strat, err := cfg.NewStrategy(env)
	if err != nil {
		return nil, err
	}
	buckets := int(cfg.Horizon/DefaultFleetInterval) + 1
	interruptions := make([]int, buckets)
	var costLog []indexedCost
	d := newDriver(env, strat, cfg.InstanceType, f, index, func(inst *cloud.Instance, i int, interrupted bool) {
		costLog = append(costLog, indexedCost{gidx: f.Base + i, usd: inst.CostUSD})
		if interrupted {
			interruptions[intervalIndex(inst.TerminatedAt.Sub(start), buckets)]++
		}
	})

	// The retry sweep runs straight on the shard engine. Going through
	// CloudWatch would bill per tick, and tick totals scale with the
	// shard count — the one cost that is engine-shape, not simulation.
	sweepFired := uint64(0)
	ticker := eng.Every(DefaultSweepInterval, "harness-open-request-sweep", func(time.Time) {
		prov.EvaluateOpenRequests()
		sweepFired++
	})

	if err := d.placeInitial(); err != nil {
		return nil, err
	}

	for d.completed != n && sentinelFired == 0 && eng.Pending() > 0 {
		eng.Step()
	}
	ticker.Stop()
	d.terminateAll()

	return &shardOut{
		tally:                    d.tally,
		strategyName:             strat.Name(),
		startNs:                  start.UnixNano(),
		interruptionsPerInterval: interruptions,
		costLog:                  costLog,
		firedAdj:                 eng.Fired() - sweepFired - sentinelFired - prov.BatchEventsFired(),
		serviceCostUSD:           env.Ledger.Total(),
	}, nil
}

// shardTags resolves fleet tags and IDs ("<prefix>-<globalIndex>",
// zero-padded) to dense indices of one shard's view.
type shardTags struct{ base, n int }

//spotverse:hotpath
func (s shardTags) index(id string) (int, bool) {
	cut := strings.LastIndexByte(id, '-')
	if cut < 0 {
		return 0, false
	}
	g, err := strconv.Atoi(id[cut+1:])
	if err != nil {
		return 0, false
	}
	i := g - s.base
	if i < 0 || i >= s.n {
		return 0, false
	}
	return i, true
}

// intervalIndex returns the histogram slot of an offset from the run
// start among n slots, clamping anything at or past the horizon into
// the last one.
func intervalIndex(off time.Duration, n int) int {
	return min(max(int(off/DefaultFleetInterval), 0), n-1)
}

// mergeShards folds per-shard aggregates into one FleetResult under
// order-canonical reductions, so the merged bytes are independent of
// both the shard count and the worker interleaving:
//
//   - counters and the interruption histograms are integer sums;
//   - instance cost stable-sorts the concatenated (global index, cost)
//     log and sums in that order — within one workload, termination
//     order is shard-count-invariant, so the float sum is too;
//   - peak concurrency replays the sorted launch/stop stamps, with
//     stops at an instant applied before launches at the same instant;
//   - completion stats and the completion histogram are recomputed from
//     the fleet's CompletedAtNanos column in global index order.
func mergeShards(cfg *FleetShardedConfig, outs []*shardOut) (*FleetResult, error) {
	f := cfg.Fleet
	n := f.Len()
	buckets := int(cfg.Horizon/DefaultFleetInterval) + 1
	res := &FleetResult{
		InstanceType:             cfg.InstanceType,
		Workloads:                n,
		InterruptionsByRegion:    make(map[catalog.Region]int),
		LaunchesByRegion:         make(map[catalog.Region]int),
		Interval:                 DefaultFleetInterval,
		CompletionsPerInterval:   make([]int, buckets),
		InterruptionsPerInterval: make([]int, buckets),
	}

	var costs []indexedCost
	var launches, stops []int64
	for _, o := range outs {
		if o.strategyName != "" {
			res.StrategyName = o.strategyName
			res.Start = time.Unix(0, o.startNs).UTC()
		}
		res.Completed += o.completed
		res.Interruptions += o.interruptions
		res.OnDemandLaunches += o.onDemandLaunches
		res.DuplicateRelaunches += o.duplicateRelaunches
		for r, c := range o.interruptionsByRegion {
			res.InterruptionsByRegion[r] += c
		}
		for r, c := range o.launchesByRegion {
			res.LaunchesByRegion[r] += c
		}
		for i, c := range o.interruptionsPerInterval {
			res.InterruptionsPerInterval[i] += c
		}
		res.EventsFired += o.firedAdj
		res.ServiceCostUSD += o.serviceCostUSD
		costs = append(costs, o.costLog...)
		launches = append(launches, o.launchNs...)
		stops = append(stops, o.stopNs...)
	}

	sort.SliceStable(costs, func(i, j int) bool { return costs[i].gidx < costs[j].gidx })
	for _, c := range costs {
		res.InstanceCostUSD += c.usd
	}
	res.TotalCostUSD = res.InstanceCostUSD + res.ServiceCostUSD

	sort.Slice(launches, func(i, j int) bool { return launches[i] < launches[j] })
	sort.Slice(stops, func(i, j int) bool { return stops[i] < stops[j] })
	running, j := 0, 0
	for _, t := range launches {
		for j < len(stops) && stops[j] <= t {
			running--
			j++
		}
		running++
		if running > res.PeakRunning {
			res.PeakRunning = running
		}
	}

	if res.Completed > 0 {
		var sum float64
		lastNs := int64(0)
		startNs := res.Start.UnixNano()
		for i := 0; i < n; i++ {
			if !f.Completed[i] {
				continue
			}
			at := f.CompletedAtNanos[i]
			res.CompletionsPerInterval[intervalIndex(time.Duration(at-startNs), buckets)]++
			sum += time.Duration(at - startNs).Hours()
			if at > lastNs {
				lastNs = at
			}
		}
		res.MeanCompletionHours = sum / float64(res.Completed)
		res.MakespanHours = time.Duration(lastNs - startNs).Hours()
	}

	if res.Completed != n && !cfg.AllowIncomplete {
		return nil, fmt.Errorf("%w: %d/%d done after %v (strategy %s)",
			ErrHorizon, res.Completed, n, cfg.Horizon, res.StrategyName)
	}
	return res, nil
}
