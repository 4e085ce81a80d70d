package experiment

import (
	"context"
	"fmt"
	"runtime/pprof"
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
	// Interval is the streaming histogram bucket width (default
	// DefaultFleetInterval).
	Interval time.Duration
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
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultFleetInterval
	}

	n := cfg.Fleet.Len()
	family := simclock.SplitMixFamily(seed, splitmixFleetStream)
	outs, err := Gather(cfg.Shards, func(k int) (*shardOut, error) {
		lo, hi := workload.ShardBounds(n, cfg.Shards, k)
		if lo == hi {
			return &shardOut{}, nil
		}
		return runFleetShard(seed, family, &cfg, cfg.Fleet.Shard(lo, hi))
	})
	if err != nil {
		return nil, err
	}
	return mergeShards(&cfg, outs)
}

// shardOut is one shard's contribution to the merged FleetResult:
// plain sums, mergeable logs, and the shard's count of per-workload
// engine events. Everything here is either a per-workload quantity or
// reduced under a shard-count-invariant rule by mergeShards.
type shardOut struct {
	strategyName string
	startNs      int64

	completed           int
	interruptions       int
	onDemandLaunches    int
	duplicateRelaunches int

	interruptionsByRegion map[catalog.Region]int
	launchesByRegion      map[catalog.Region]int

	completionsPerInterval   []int
	interruptionsPerInterval []int

	// costLog records (global index, final cost) per terminated
	// instance, in termination order — which within one workload is
	// shard-count-invariant. The merge stable-sorts by index and sums.
	costLog []indexedCost
	// launchNs/stopNs stamp tracked instance starts and stops; the merge
	// recovers the global concurrency high-water mark from the sorted
	// logs.
	launchNs []int64
	stopNs   []int64

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

// shardDriver drives one shard's engine. It is the struct-of-arrays
// counterpart of driver: every per-workload map becomes a slice indexed
// by dense workload index, and the per-launch closure allocations are
// hoisted into per-workload caches — completion and relaunch closures
// capture only the dense index and read the driver's current state when
// they fire.
type shardDriver struct {
	env   *Env
	cfg   *FleetShardedConfig
	f     *workload.FleetState
	strat strategy.Strategy
	obs   CompletionObserver
	out   *shardOut

	start time.Time

	// ids holds the strategy-facing workload IDs, indexed densely; the
	// hot path never re-formats an ID.
	ids []string

	activeInst   []cloud.InstanceID
	completionEv []*simclock.Event

	// rngs are the per-workload draw streams the provider resolves
	// through SetWorkloadRand.
	rngs []simclock.SplitMix64

	// compFns/relFns are the cached per-workload closures. A pending
	// completion event exists only while its instance is the tracked one
	// (interruption cancels the event; duplicate launches are refused),
	// so compFns[i] can re-read activeInst[i] at fire time.
	compFns []func()
	relFns  []strategy.RelaunchFunc
}

func runFleetShard(seed int64, family uint64, cfg *FleetShardedConfig, f *workload.FleetState) (*shardOut, error) {
	var (
		out *shardOut
		err error
	)
	label := cfg.ProfLabel
	pprof.Do(context.Background(), pprof.Labels("arm", label), func(context.Context) {
		out, err = runFleetShardLabeled(seed, family, cfg, f)
	})
	return out, err
}

func runFleetShardLabeled(seed int64, family uint64, cfg *FleetShardedConfig, f *workload.FleetState) (*shardOut, error) {
	env := NewEnv(seed)
	eng := env.Engine
	start := eng.Now()
	horizon := start.Add(cfg.Horizon)

	// The sentinel is scheduled before anything else, so it holds the
	// smallest sequence number of the run: any event landing exactly on
	// the horizon loses the same-instant tie to it and never executes,
	// at every shard count.
	sentinelHit := false
	if _, serr := eng.ScheduleAt(horizon, "fleet-horizon", func() { sentinelHit = true }); serr != nil {
		return nil, serr
	}

	prov := env.Provider
	prov.SetEventHorizon(horizon)

	n := f.Len()
	buckets := int(cfg.Horizon/cfg.Interval) + 1
	out := &shardOut{
		startNs:                  start.UnixNano(),
		interruptionsByRegion:    make(map[catalog.Region]int),
		launchesByRegion:         make(map[catalog.Region]int),
		completionsPerInterval:   make([]int, buckets),
		interruptionsPerInterval: make([]int, buckets),
	}
	d := &shardDriver{
		env:          env,
		cfg:          cfg,
		f:            f,
		out:          out,
		start:        start,
		ids:          make([]string, n),
		activeInst:   make([]cloud.InstanceID, n),
		completionEv: make([]*simclock.Event, n),
		rngs:         make([]simclock.SplitMix64, n),
		compFns:      make([]func(), n),
		relFns:       make([]strategy.RelaunchFunc, n),
	}
	for i := 0; i < n; i++ {
		idx := i
		d.ids[i] = f.ID(i)
		d.rngs[i] = simclock.SplitMixAt(family, f.Base+i)
		d.compFns[i] = func() { d.complete(idx) }
		d.relFns[i] = func(p strategy.Placement) {
			if d.f.Completed[idx] {
				return
			}
			_ = d.provision(idx, p)
		}
	}
	prov.SetWorkloadRand(d.streamFor)

	strat, err := cfg.NewStrategy(env)
	if err != nil {
		return nil, err
	}
	d.strat = strat
	d.obs, _ = strat.(CompletionObserver)
	out.strategyName = strat.Name()

	prov.OnLaunch(d.onLaunch)
	prov.OnTerminate(d.onTerminate)
	if target, ok := strat.(RelaunchResolverTarget); ok {
		target.SetRelaunchResolver(d.relaunchFor)
	}

	// The retry sweep runs straight on the shard engine. Going through
	// CloudWatch would bill per tick, and tick totals scale with the
	// shard count — the one cost that is engine-shape, not simulation.
	sweepFired := uint64(0)
	ticker := eng.Every(DefaultSweepInterval, "harness-open-request-sweep", func(time.Time) {
		prov.EvaluateOpenRequests()
		sweepFired++
	})

	// The strategy API takes sorted IDs, as on the per-workload path.
	sorted := make([]string, n)
	copy(sorted, d.ids)
	sort.Strings(sorted)
	placements, err := strat.PlaceInitial(sorted)
	if err != nil {
		return nil, fmt.Errorf("experiment: initial placement: %w", err)
	}
	for _, id := range sorted {
		p, ok := placements[id]
		if !ok {
			return nil, fmt.Errorf("experiment: strategy left %q unplaced", id)
		}
		idx, ok := d.indexOf(id)
		if !ok {
			return nil, fmt.Errorf("experiment: strategy placed unknown id %q", id)
		}
		if err := d.provision(idx, p); err != nil {
			return nil, err
		}
	}

	for out.completed != n && !sentinelHit {
		if eng.Pending() == 0 {
			break
		}
		eng.Step()
	}
	ticker.Stop()
	for _, inst := range prov.RunningInstances() {
		_ = prov.Terminate(inst.ID)
	}

	sentinelFired := uint64(0)
	if sentinelHit {
		sentinelFired = 1
	}
	out.firedAdj = eng.Fired() - sweepFired - sentinelFired - prov.BatchEventsFired()
	out.serviceCostUSD = env.Ledger.Total()
	return out, nil
}

// streamFor resolves an instance/request tag to its workload's draw
// stream; tags outside this shard (there are none in practice) fall
// back to the provider's sequential stream.
func (d *shardDriver) streamFor(tag string) *simclock.SplitMix64 {
	idx, ok := d.indexOf(tag)
	if !ok {
		return nil
	}
	return &d.rngs[idx]
}

// indexOf recovers the dense (shard-local) index from an instance tag
// or strategy-facing ID ("<prefix>-<globalIndex>", zero-padded).
//
//spotverse:hotpath
func (d *shardDriver) indexOf(id string) (int, bool) {
	cut := strings.LastIndexByte(id, '-')
	if cut < 0 {
		return 0, false
	}
	g, err := strconv.Atoi(id[cut+1:])
	if err != nil {
		return 0, false
	}
	i := g - d.f.Base
	if i < 0 || i >= d.f.Len() {
		return 0, false
	}
	return i, true
}

func (d *shardDriver) relaunchFor(id string) strategy.RelaunchFunc {
	idx, ok := d.indexOf(id)
	if !ok {
		return nil
	}
	return d.relFns[idx]
}

func (d *shardDriver) provision(idx int, p strategy.Placement) error {
	id := d.ids[idx]
	switch p.Lifecycle {
	case cloud.LifecycleOnDemand:
		if _, err := d.env.Provider.RunOnDemand(d.cfg.InstanceType, p.Region, id); err != nil {
			return fmt.Errorf("experiment: provision %s on-demand: %w", id, err)
		}
	default:
		if _, err := d.env.Provider.RequestSpot(d.cfg.InstanceType, p.Region, id); err != nil {
			return fmt.Errorf("experiment: provision %s spot: %w", id, err)
		}
	}
	return nil
}

// bucket returns the histogram slot for an instant, clamping anything
// at or past the horizon into the last slot.
func (d *shardDriver) bucket(at time.Time) int {
	i := int(at.Sub(d.start) / d.cfg.Interval)
	if max := len(d.out.completionsPerInterval) - 1; i > max {
		i = max
	}
	if i < 0 {
		i = 0
	}
	return i
}

func (d *shardDriver) onLaunch(inst *cloud.Instance) {
	idx, ok := d.indexOf(inst.Tag)
	if !ok {
		return
	}
	if d.f.Completed[idx] {
		// A stale open request got fulfilled after completion.
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	if d.activeInst[idx] != "" {
		d.out.duplicateRelaunches++
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	if err := d.f.BeginAttempt(idx); err != nil {
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	now := d.env.Engine.Now()
	d.activeInst[idx] = inst.ID
	d.out.launchNs = append(d.out.launchNs, now.UnixNano())
	d.out.launchesByRegion[inst.Region]++
	if inst.Lifecycle == cloud.LifecycleOnDemand {
		d.out.onDemandLaunches++
	}
	need := d.f.AttemptDuration(idx)
	d.completionEv[idx] = d.env.Engine.ScheduleAfter(need, "workload-complete", d.compFns[idx])
}

func (d *shardDriver) complete(idx int) {
	instID := d.activeInst[idx]
	if instID == "" {
		return
	}
	now := d.env.Engine.Now()
	if err := d.f.MarkComplete(idx, now); err != nil {
		return
	}
	d.out.completed++
	d.out.completionsPerInterval[d.bucket(now)]++
	d.completionEv[idx] = nil
	if d.obs != nil {
		d.obs.OnCompleted(d.ids[idx])
	}
	_ = d.env.Provider.Terminate(instID)
}

func (d *shardDriver) onTerminate(inst *cloud.Instance, interrupted bool) {
	idx, ok := d.indexOf(inst.Tag)
	if !ok {
		return
	}
	d.out.costLog = append(d.out.costLog, indexedCost{gidx: d.f.Base + idx, usd: inst.CostUSD})
	tracked := d.activeInst[idx] == inst.ID
	if tracked {
		d.activeInst[idx] = ""
		d.out.stopNs = append(d.out.stopNs, d.env.Engine.Now().UnixNano())
	}
	if !interrupted || d.f.Completed[idx] || !tracked {
		return
	}
	now := d.env.Engine.Now()
	d.out.interruptions++
	d.out.interruptionsByRegion[inst.Region]++
	d.out.interruptionsPerInterval[d.bucket(now)]++
	d.f.RecordInterruption(idx)
	if ev := d.completionEv[idx]; ev != nil {
		ev.Cancel()
		d.completionEv[idx] = nil
	}
	if err := d.strat.OnInterrupted(inst.Tag, inst.Region, d.relFns[idx]); err != nil {
		// A strategy that cannot place leaves the workload stranded; the
		// run hits the horizon and reports it.
		return
	}
}

// mergeShards folds per-shard aggregates into one FleetResult under
// order-canonical reductions, so the merged bytes are independent of
// both the shard count and the worker interleaving:
//
//   - counters and histograms are integer sums;
//   - instance cost stable-sorts the concatenated (global index, cost)
//     log and sums in that order — within one workload, termination
//     order is shard-count-invariant, so the float sum is too;
//   - peak concurrency replays the sorted launch/stop stamps, with
//     stops at an instant applied before launches at the same instant;
//   - completion stats are recomputed from the fleet's CompletedAtNanos
//     column in global index order.
func mergeShards(cfg *FleetShardedConfig, outs []*shardOut) (*FleetResult, error) {
	f := cfg.Fleet
	n := f.Len()
	buckets := int(cfg.Horizon/cfg.Interval) + 1
	res := &FleetResult{
		InstanceType:             cfg.InstanceType,
		Workloads:                n,
		InterruptionsByRegion:    make(map[catalog.Region]int),
		LaunchesByRegion:         make(map[catalog.Region]int),
		Interval:                 cfg.Interval,
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
		for i, c := range o.completionsPerInterval {
			res.CompletionsPerInterval[i] += c
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
