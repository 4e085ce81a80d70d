package experiment

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
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

// Check verifies the accounting laws every FleetResult obeys whatever the
// arm, size or shard count: per-region and per-interval counts sum to
// their totals, cost splits into instance and service spend, and — once
// every workload completed without a duplicate relaunch — each launch is
// one engine event ending in either a completion or an interruption. It
// returns every broken law, joined.
func (res *FleetResult) Check() error {
	var errs []error
	broken := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	launches := sumValues(res.LaunchesByRegion)
	if byRegion, perInterval := sumValues(res.InterruptionsByRegion), sumInts(res.InterruptionsPerInterval); byRegion != res.Interruptions || perInterval != res.Interruptions {
		broken("interruptions by region %d, per interval %d, total %d", byRegion, perInterval, res.Interruptions)
	}
	if perInterval := sumInts(res.CompletionsPerInterval); perInterval != res.Completed {
		broken("completions per interval %d, completed %d", perInterval, res.Completed)
	}
	if res.TotalCostUSD != res.InstanceCostUSD+res.ServiceCostUSD {
		broken("total cost %v != instance %v + service %v", res.TotalCostUSD, res.InstanceCostUSD, res.ServiceCostUSD)
	}
	if res.OnDemandLaunches > launches {
		broken("%d on-demand launches of %d", res.OnDemandLaunches, launches)
	}
	if res.PeakRunning > res.Workloads {
		broken("peak running %d > %d workloads", res.PeakRunning, res.Workloads)
	}
	if res.MeanCompletionHours > res.MakespanHours {
		broken("mean completion %vh > makespan %vh", res.MeanCompletionHours, res.MakespanHours)
	}
	if res.Completed == res.Workloads && res.DuplicateRelaunches == 0 {
		if uint64(launches) != res.EventsFired || launches != res.Completed+res.Interruptions {
			broken("%d launches, %d events, %d completions + %d interruptions",
				launches, res.EventsFired, res.Completed, res.Interruptions)
		}
	}
	return errors.Join(errs...)
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func sumValues(m map[catalog.Region]int) int {
	n := 0
	for _, x := range m {
		n += x
	}
	return n
}

// splitmixFleetStream names the per-workload draw family. Workload i's
// trajectory draws come from SplitMixAt(SplitMixFamily(seed, name), i),
// so the stream is a pure function of (seed, global index) — the
// property that makes shard boundaries invisible.
const splitmixFleetStream = "fleet-wl"

// FleetShardedConfig parameterises a fleet run. It mirrors RunConfig
// minus what is inherently per-workload (the structured Timeline, the
// checkpoint and durability options), with two deliberate
// differences: the strategy is built per block (each block runs in its
// own Env, and strategies hold an engine/market handle), and there is
// no sweep option — the driver always runs its own per-block sweep.
type FleetShardedConfig struct {
	// Fleet holds the workloads in struct-of-arrays form (mutated by the
	// run).
	Fleet *workload.FleetState
	// NewStrategy builds one strategy instance per partition over that
	// partition's Env. The fleet arms are per-workload stateless —
	// decisions depend only on the pure market at the decision instant —
	// which is what lets per-partition instances behave identically to
	// one shared one. A stateful strategy (one that round-robins by
	// position or shares an RNG across workloads) still runs, but its
	// result depends on the partition, and every fleet larger than one
	// block (fleetBlock, 512 workloads) is partitioned whatever Shards
	// says.
	NewStrategy func(env *Env) (strategy.Strategy, error)
	// InstanceType used by every workload.
	InstanceType catalog.InstanceType
	// Horizon caps simulated time (default 14 days).
	Horizon time.Duration
	// AllowIncomplete tolerates unfinished workloads at the horizon.
	AllowIncomplete bool
	// Shards is the minimum number of contiguous fleet partitions
	// (default 1). The run cuts the fleet into at least this many, and
	// into enough that none holds more than fleetBlock workloads, but
	// never into more than there are workloads. Each partition runs on
	// the worker pool as one block, in an Env of its own whose engine and
	// provider are a worker's reused ones, reset to their fresh state;
	// the merged result is byte-identical at every shard count.
	Shards int
	// ProfLabel names the run's pprof "arm" label.
	ProfLabel string
}

// fleetBlock is the most workloads one block simulates. A block's
// engine heap, instance map and live pointers grow with its workload
// count; blocks of this size keep one engine's working set near a
// core's L2 cache and leave the garbage collector little live heap to
// mark. Each worker runs its blocks one after another on one reused
// block arena (blockArena), so the storage is sized once per worker,
// not once per block. The size was picked from a measured ladder of 256
// to 8192 (see DESIGN.md "Fleet engine"). A stateful arm's result
// depends on the partition, so the tests that pin one against Run stay
// at sizes below this.
const fleetBlock = 512

// fleetPartitions returns how many contiguous partitions RunFleetSharded
// cuts n >= 1 workloads into: at least shards, enough that none holds
// more than fleetBlock workloads, and at most n, so no partition is
// empty.
func fleetPartitions(n, shards int) int {
	return min(max(shards, (n-1)/fleetBlock+1), n)
}

// RunFleetSharded executes a fleet-scale experiment partitioned across
// independent block engines. The fleet's SoA columns are split into
// fleetPartitions contiguous [lo, hi) views (workload.ShardBounds), so
// a large fleet runs as many cache-sized blocks; each block runs on a
// worker's block arena, whose engine, provider and driver are reset to
// their fresh state (so the block sees a new Env over the shared
// immutable market snapshot), with a horizon sentinel and per-workload
// SplitMix64 draw streams keyed by global index; blocks run
// concurrently on the bounded worker pool; and the per-block streaming
// aggregates merge under order-canonical rules (index-ordered costs,
// time-ordered launch/stop stamps, index-ordered completion stats).
// Every quantity in the result is a function of per-workload
// trajectories plus a canonical reduction, and each trajectory of a
// per-workload stateless strategy is a pure function of (seed, global
// index, market) — so for such a strategy the output is byte-identical
// at any shard count and any worker count, and whichever blocks a
// worker's arena ran before.
//
// For the stateless baseline arms, with the same per-workload streams
// installed on Run's provider (cloud.SetWorkloadRand), every trajectory
// equals Run's; the golden test pins that. The one intentional
// difference from Run: the 15-minute open-request sweep is
// self-scheduled on each block engine rather than billed through
// CloudWatch, because per-block tick counts vary with the shard count
// and their billing would leak into ServiceCostUSD. Standard workloads
// use no other billed service, so ServiceCostUSD is zero on this path.
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
	parts := fleetPartitions(n, cfg.Shards)
	family := simclock.SplitMixFamily(seed, splitmixFleetStream)
	outs, err := Gather(parts, func(k int) (*shardOut, error) {
		lo, hi := workload.ShardBounds(n, parts, k)
		return labeled("arm", cfg.ProfLabel, func() (*shardOut, error) {
			a := blockArenas.Get().(*blockArena)
			out, err := a.run(seed, family, &cfg, cfg.Fleet.Shard(lo, hi))
			a.release()
			blockArenas.Put(a)
			return out, err
		})
	})
	if err != nil {
		return nil, err
	}
	return mergeShards(&cfg, outs)
}

// shardOut is one shard's contribution to the merged FleetResult: the
// driver's tally, the shard's instance costs, and its count of
// per-workload engine events. Everything here is either a per-workload
// quantity or reduced under a shard-count-invariant rule by mergeShards.
type shardOut struct {
	tally
	strategyName string
	startNs      int64

	// interruptionsPerInterval is the shard's interruption histogram.
	interruptionsPerInterval []int
	// costs holds the final cost of every terminated instance in
	// (workload index, termination) order. Termination order within one
	// workload is shard-count-invariant, and shards are contiguous index
	// ranges, so summing the shards' costs in shard order adds one
	// sequence of floats at every shard count.
	costs []float64

	// firedAdj is the shard's engine events minus the engine-shape
	// bookkeeping (sweep ticks, the horizon sentinel, batched-fulfill
	// buckets) whose counts depend on how the fleet was partitioned.
	// What remains — completions, notices, reclaims, price events — is
	// per-workload and shard-count-invariant.
	firedAdj uint64

	serviceCostUSD float64
}

// indexedCost is one terminated instance's cost, keyed by the shard-local
// index of the workload it served.
type indexedCost struct {
	i   int
	usd float64
}

// bucketCosts orders a shard's cost log, kept in termination order, by
// workload index among n workloads: a stable counting sort, so each
// workload's costs keep their termination order.
func bucketCosts(log []indexedCost, n int) []float64 {
	next := make([]int, n+1)
	for _, c := range log {
		next[c.i+1]++
	}
	for i := 1; i < n; i++ {
		next[i] += next[i-1]
	}
	out := make([]float64, len(log))
	for _, c := range log {
		out[next[c.i]] = c.usd
		next[c.i]++
	}
	return out
}

// blockArena is the block state one worker reuses from one fleet block
// to the next: an engine, a provider and a driver, reset in place
// instead of rebuilt, with the per-workload streams, the cost log, and
// the owned horizon sentinel and sweep events. A reset restores what a
// block can observe — the clock and sequence numbers, the provider's
// streams, memo and subscribers, the driver's per-workload tables and
// tally — to what a new arena holds, and keeps only storage: the event
// queue, the record free lists, the fulfill-bucket pool, the emptied
// maps, the driver's slot closures and stamp buffers. So a block's
// output is the same on a warm arena as on a new one.
type blockArena struct {
	eng  *simclock.Engine
	prov *cloud.Provider
	d    driver

	// tags resolves the block's instance tags and IDs, and rngs holds its
	// per-workload draw streams.
	tags shardTags
	rngs []simclock.SplitMix64

	// startNs is the block's start; costLog and interruptions collect
	// what terminated instances cost and when the counted ones were
	// interrupted.
	startNs       int64
	costLog       []indexedCost
	interruptions []int

	sentinel, sweep           simclock.Event
	sentinelFired, sweepFired uint64

	// The callbacks the block hands out, bound once per arena.
	indexFn             func(tag string) (int, bool)
	randFn              func(tag string) *simclock.SplitMix64
	terminatedFn        func(inst *cloud.Instance, i int, interrupted bool)
	sentinelFn, sweepFn func()
}

// blockArenas holds the arenas of idle workers.
var blockArenas = sync.Pool{New: func() any { return newBlockArena() }}

func newBlockArena() *blockArena {
	a := &blockArena{}
	a.indexFn = a.index
	a.randFn = a.workloadRand
	a.terminatedFn = a.terminated
	a.sentinelFn = func() { a.sentinelFired++ }
	a.sweepFn = a.runSweep
	return a
}

// reset readies the arena's engine and provider for a block of the
// given seed and returns the block's Env: the reused engine and
// provider, a market view, and a fresh ledger and managed services.
func (a *blockArena) reset(seed int64) *Env {
	mkt := acquireMarket(seed, simclock.Epoch)
	if a.eng == nil {
		a.eng = simclock.NewEngineAt(simclock.Epoch)
		a.prov = cloud.New(a.eng, mkt, seed)
	} else {
		a.eng.Reset(simclock.Epoch)
		a.prov.Reset(mkt, seed)
	}
	a.sentinelFired, a.sweepFired = 0, 0
	return newEnv(seed, a.eng, mkt, a.prov)
}

// run simulates one block: the workloads of f, under cfg, with the
// per-workload streams of family.
func (a *blockArena) run(seed int64, family uint64, cfg *FleetShardedConfig, f *workload.FleetState) (*shardOut, error) {
	env := a.reset(seed)
	eng := env.Engine
	start := eng.Now()
	a.startNs = start.UnixNano()

	// The sentinel is armed before anything else, so it holds the
	// smallest sequence number of the run: any event landing exactly on
	// the horizon loses the same-instant tie to it and never executes,
	// at every shard count.
	eng.ArmAfter(&a.sentinel, cfg.Horizon, "fleet-horizon", a.sentinelFn)

	prov := env.Provider
	prov.SetEventHorizon(start.Add(cfg.Horizon))

	// Per-workload draw streams, resolved by tag; tags outside this block
	// (there are none in practice) fall back to the provider's sequential
	// stream.
	n := f.Len()
	a.tags = shardTags{base: f.Base, n: n}
	a.rngs = resized(a.rngs, n)
	for i := range a.rngs {
		a.rngs[i] = simclock.SplitMixAt(family, f.Base+i)
	}
	prov.SetWorkloadRand(a.randFn)

	strat, err := cfg.NewStrategy(env)
	if err != nil {
		return nil, err
	}
	a.interruptions = make([]int, int(cfg.Horizon/DefaultFleetInterval)+1)
	a.costLog = a.costLog[:0]
	d := &a.d
	d.reset(env, strat, cfg.InstanceType, f, a.indexFn, a.terminatedFn)

	// The retry sweep runs straight on the block engine. Going through
	// CloudWatch would bill per tick, and tick totals scale with the
	// block count — the one cost that is engine-shape, not simulation.
	eng.ArmAfter(&a.sweep, DefaultSweepInterval, "harness-open-request-sweep", a.sweepFn)

	if err := d.placeInitial(); err != nil {
		return nil, err
	}

	for d.completed != n && a.sentinelFired == 0 && eng.Pending() > 0 {
		eng.Step()
	}
	d.terminateAll()

	return &shardOut{
		tally:                    d.tally.detached(),
		strategyName:             strat.Name(),
		startNs:                  a.startNs,
		interruptionsPerInterval: a.interruptions,
		costs:                    bucketCosts(a.costLog, n),
		firedAdj:                 eng.Fired() - a.sweepFired - a.sentinelFired - prov.BatchEventsFired(),
		serviceCostUSD:           env.Ledger.Total(),
	}, nil
}

// release drops the block's references to caller-owned state, so an
// idle arena pins no fleet or strategy.
func (a *blockArena) release() {
	a.d.wl, a.d.strat, a.d.obs = nil, nil, nil
}

func (a *blockArena) index(tag string) (int, bool) { return a.tags.index(tag) }

func (a *blockArena) workloadRand(tag string) *simclock.SplitMix64 {
	i, ok := a.tags.index(tag)
	if !ok {
		return nil
	}
	return &a.rngs[i]
}

// terminated logs a terminated instance's cost and, when it is a
// counted interruption, its histogram slot.
func (a *blockArena) terminated(inst *cloud.Instance, i int, interrupted bool) {
	a.costLog = append(a.costLog, indexedCost{i: i, usd: inst.CostUSD})
	if interrupted {
		a.interruptions[intervalIndex(time.Duration(inst.TerminatedAt.UnixNano()-a.startNs), len(a.interruptions))]++
	}
}

// runSweep is one tick of the open-request sweep; like a ticker, it
// re-arms itself after the sweep's own scheduling.
func (a *blockArena) runSweep() {
	a.prov.EvaluateOpenRequests()
	a.sweepFired++
	a.eng.ArmAfter(&a.sweep, DefaultSweepInterval, "harness-open-request-sweep", a.sweepFn)
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
//   - instance cost adds each shard's index-ordered costs in shard
//     order, which is the global (index, termination) order — within one
//     workload, termination order is shard-count-invariant, so the float
//     sum is too;
//   - peak concurrency replays the launch/stop stamps in time order (see
//     peakRunning);
//   - completion stats and the completion histogram are recomputed from
//     the fleet's CompletedAtNanos column in global index order.
//
// The merged result must pass Check.
func mergeShards(cfg *FleetShardedConfig, outs []*shardOut) (*FleetResult, error) {
	f := cfg.Fleet
	n := f.Len()
	buckets := int(cfg.Horizon/DefaultFleetInterval) + 1
	res := &FleetResult{
		InstanceType:             cfg.InstanceType,
		Workloads:                n,
		Interval:                 DefaultFleetInterval,
		CompletionsPerInterval:   make([]int, buckets),
		InterruptionsPerInterval: make([]int, buckets),
	}

	// Every Env is built over the store's catalog, which names the
	// tallies' region indices.
	cat := mktStore.Load().Catalog()
	launches := make([]int, len(cat.Regions()))
	interruptions := make([]int, len(cat.Regions()))
	for _, o := range outs {
		if o.strategyName != "" {
			res.StrategyName = o.strategyName
			res.Start = time.Unix(0, o.startNs).UTC()
		}
		res.Completed += o.completed
		res.Interruptions += o.interruptions
		res.OnDemandLaunches += o.onDemandLaunches
		res.DuplicateRelaunches += o.duplicateRelaunches
		for ri, c := range o.interruptionsByRegion {
			interruptions[ri] += c
		}
		for ri, c := range o.launchesByRegion {
			launches[ri] += c
		}
		for i, c := range o.interruptionsPerInterval {
			res.InterruptionsPerInterval[i] += c
		}
		res.EventsFired += o.firedAdj
		res.ServiceCostUSD += o.serviceCostUSD
		for _, c := range o.costs {
			res.InstanceCostUSD += c
		}
	}
	res.InterruptionsByRegion = byRegion(cat, interruptions)
	res.LaunchesByRegion = byRegion(cat, launches)
	res.TotalCostUSD = res.InstanceCostUSD + res.ServiceCostUSD
	res.PeakRunning = peakRunning(outs)

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
	if err := res.Check(); err != nil {
		return nil, fmt.Errorf("experiment: fleet merge (strategy %s): %w", res.StrategyName, err)
	}
	return res, nil
}

// peakRunning returns the high-water mark of running instances across
// every shard: the largest L(t) - S(t) over launch instants t, where L
// and S count the launch and stop stamps at or before t (so stops come
// before launches at an equal instant). Each shard's stamps are already
// nondecreasing — the driver appends them at the shard engine's monotone
// clock, and terminateAll stops the survivors at the final instant — so
// no sort is needed. The runs are read in hour-wide windows. Within a
// window the count can rise at most by the window's launches, so a
// window that could not lift it past the peak so far is passed over by
// counting; only the others are replayed in time order (replayWindow).
// Once the fleet starts to drain no window can, so only the first hours
// are replayed.
func peakRunning(outs []*shardOut) int {
	launches := make(stampTails, 0, len(outs))
	stops := make(stampTails, 0, len(outs))
	left, limit := 0, int64(math.MaxInt64)
	for _, o := range outs {
		if len(o.launchNs) > 0 {
			launches = append(launches, o.launchNs)
			left += len(o.launchNs)
			limit = min(limit, o.launchNs[0])
		}
		stops = append(stops, o.stopNs)
	}
	var launchHeads, stopHeads [][]int64
	running, peak := 0, 0
	for ; left > 0; limit += int64(DefaultFleetInterval) {
		var nl, ns int
		launchHeads, nl = launches.take(limit, launchHeads)
		stopHeads, ns = stops.take(limit, stopHeads)
		if running+nl > peak {
			peak = replayWindow(launchHeads, stopHeads, running, peak)
		}
		running += nl - ns
		left -= nl
	}
	return peak
}

// stampTails holds the unread tail of each shard's nondecreasing run.
type stampTails [][]int64

// take cuts the stamps at or before limit off the front of every tail,
// collects the nonempty cuts in heads (reusing its storage), and returns
// them with their total length.
func (t stampTails) take(limit int64, heads [][]int64) ([][]int64, int) {
	heads = heads[:0]
	n := 0
	for i, run := range t {
		j := 0
		for j < len(run) && run[j] <= limit {
			j++
		}
		if j > 0 {
			heads = append(heads, run[:j])
			t[i] = run[j:]
			n += j
		}
	}
	return heads, n
}

// replayWindow merges one window's launch and stop runs in time order,
// starting from the running count at the window's start, and returns
// peak raised to the highest count after any launch instant. Stamps
// share instants in bulk (initial placement, batched fulfills), so it
// takes each run's stamps at or before an instant in one step: launches
// at one instant only raise the count, so the count after all of them
// is the highest.
func replayWindow(launchRuns, stopRuns [][]int64, running, peak int) int {
	launches, stops := newStampRuns(launchRuns), newStampRuns(stopRuns)
	for len(launches) > 0 {
		t := launches[0].first
		for len(stops) > 0 && stops[0].first <= t {
			running -= stops.popThrough(t)
		}
		running += launches.popThrough(t)
		peak = max(peak, running)
	}
	return peak
}

// stampRuns is a min-heap of nonempty, nondecreasing stamp runs keyed by
// their first stamp. Each entry keeps that stamp inline, so sifting
// compares entries without loading a run: with one run per block, the
// runs' heads sit in as many separate arrays.
type stampRuns []stampRun

type stampRun struct {
	first int64   // run[0]
	run   []int64 // nonempty
}

// newStampRuns heaps nonempty runs.
func newStampRuns(runs [][]int64) stampRuns {
	h := make(stampRuns, len(runs))
	for i, r := range runs {
		h[i] = stampRun{first: r[0], run: r}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// popThrough removes the smallest run's stamps at or before limit, which
// must be at least its first stamp, and returns how many it removed.
func (h *stampRuns) popThrough(limit int64) int {
	s := *h
	e := &s[0]
	k := 1
	for k < len(e.run) && e.run[k] <= limit {
		k++
	}
	if k < len(e.run) {
		e.run = e.run[k:]
		e.first = e.run[0]
	} else {
		last := len(s) - 1
		s[0] = s[last]
		s = s[:last]
		*h = s
	}
	s.down(0)
	return k
}

// down restores the heap order below slot i.
func (h stampRuns) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].first < h[m].first {
			m = r
		}
		if h[i].first <= h[m].first {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
