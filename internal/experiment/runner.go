package experiment

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/core"
	"spotverse/internal/cost"
	"spotverse/internal/durable"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// Defaults for RunConfig fields left zero.
const (
	DefaultHorizon         = 14 * 24 * time.Hour
	DefaultSweepInterval   = 15 * time.Minute
	CheckpointTable        = "spotverse-checkpoints"
	checkpointBucket       = "spotverse-checkpoints"
	checkpointBucketRegion = catalog.Region("us-east-1")
	// CheckpointReplicaBucket is the standby bucket durable checkpoint
	// manifests replicate into (DurabilityReplicated), homed on the same
	// continent so replication transfer stays cross-region, not
	// cross-continent.
	CheckpointReplicaBucket  = "spotverse-checkpoints-replica"
	checkpointReplicaRegion  = catalog.Region("us-west-2")
	manifestPrefix           = "manifest/"
	checkpointReplicationLag = time.Minute
)

// Errors returned by the runner.
var (
	ErrNoWorkloads = errors.New("experiment: no workloads")
	ErrNoStrategy  = errors.New("experiment: no strategy")
	ErrHorizon     = errors.New("experiment: horizon reached before all workloads completed")
)

// RunConfig parameterises one experiment run.
type RunConfig struct {
	// Workloads to execute (state is mutated by the run).
	Workloads []*workload.State
	// Strategy decides placement.
	Strategy strategy.Strategy
	// InstanceType used by every workload.
	InstanceType catalog.InstanceType
	// Horizon caps simulated time (default 14 days). Reaching it with
	// unfinished workloads is an error unless AllowIncomplete.
	Horizon time.Duration
	// AllowIncomplete tolerates unfinished workloads at the horizon.
	AllowIncomplete bool
	// DisableSweep turns off the harness's own 15-minute open-request
	// sweep. Run already skips it for a *core.SpotVerse strategy, whose
	// Controller schedules its own; only a strategy that wraps a
	// SpotVerse needs to set it.
	DisableSweep bool
	// CheckpointVia selects the checkpoint store (default S3; EFS is the
	// paper's future-work alternative).
	CheckpointVia CheckpointStore
	// Durability selects the checkpoint-manifest durability model
	// (default DurabilityOff, which leaves existing runs byte-identical).
	// Only meaningful with CheckpointS3.
	Durability DurabilityMode
	// Trace enables the structured event timeline on the Result.
	Trace bool
	// ProfLabel names this run's strategy arm in pprof profiles (the
	// "arm" label); empty defaults to the strategy name. Figures with
	// several configurations of one strategy (Fig. 10's threshold grid)
	// set it so -cpuprofile samples attribute per cell.
	ProfLabel string
}

// DurabilityMode selects how checkpoint progress manifests are stored.
type DurabilityMode int

// Durability modes.
const (
	// DurabilityOff writes no manifests — the pre-durability behaviour.
	DurabilityOff DurabilityMode = iota
	// DurabilitySingle writes CRC-checksummed manifests to the primary
	// bucket but reads them blind (no verification, no replica) — the
	// single-region unverified ablation.
	DurabilitySingle
	// DurabilityReplicated adds verification on read, failover to an
	// asynchronously replicated standby bucket, and a 15-minute
	// anti-entropy sweep.
	DurabilityReplicated
)

// CheckpointStore selects where checkpoint workloads persist state.
type CheckpointStore int

// Checkpoint stores.
const (
	// CheckpointS3 uploads shard slices to a central S3 bucket, paying
	// cross-region transfer from remote instances (the paper's setup).
	CheckpointS3 CheckpointStore = iota
	// CheckpointEFS writes to an EFS file system replicated on demand
	// into every region that touches it (Section 7's proposal).
	CheckpointEFS
)

// Result aggregates one run's metrics.
type Result struct {
	StrategyName string
	InstanceType catalog.InstanceType
	Workloads    int
	Completed    int

	// Interruptions is the total count of provider-initiated
	// terminations; InterruptionStamps is the cumulative series (Fig. 7a)
	// and InterruptionsByRegion the distribution (Fig. 7c).
	Interruptions         int
	InterruptionStamps    []time.Time
	InterruptionsByRegion map[catalog.Region]int

	// CompletionStamps is the per-workload completion instants sorted
	// ascending (Fig. 7b); MakespanHours the last of them relative to
	// start; MeanCompletionHours the mean.
	CompletionStamps    []time.Time
	MakespanHours       float64
	MeanCompletionHours float64

	// LaunchesByRegion counts instance launches per region.
	LaunchesByRegion map[catalog.Region]int
	// OnDemandLaunches counts launches that fell back to on-demand.
	OnDemandLaunches int

	// InstanceCostUSD is total instance spend; ServiceCostUSD the
	// control-plane spend; TotalCostUSD their sum. Breakdown carries the
	// per-category line items including instances.
	InstanceCostUSD float64
	ServiceCostUSD  float64
	TotalCostUSD    float64
	Breakdown       []cost.LineItem

	// Start is the simulated start time of the run.
	Start time.Time

	// LostShards counts durably-claimed shards that could not be
	// recovered at resume because the checkpoint manifest was corrupt or
	// missing in every reachable copy.
	LostShards int
	// DuplicateRelaunches counts instances launched for a workload that
	// already had a live instance — exactly-once violations on the
	// interruption-recovery path.
	DuplicateRelaunches int
	// UndetectedCorruption counts blind manifest reads that consumed
	// corrupt data without noticing (DurabilitySingle only; the verified
	// read path turns these into failovers instead).
	UndetectedCorruption int
	// Durability carries the durability layer's counters (zero value
	// unless a durable mode was on).
	Durability durable.Stats

	// Timeline is the structured event log (nil unless RunConfig.Trace).
	Timeline *Timeline
}

// instanceCost is one terminated instance's final cost.
type instanceCost struct {
	id  cloud.InstanceID
	usd float64
}

// Run executes the experiment on the environment. The environment must
// be fresh (one Run per Env): strategies register rules and schedules on
// it. The whole run executes under a pprof "arm" label (see
// RunConfig.ProfLabel) so CPU profiles attribute samples per strategy
// arm.
func Run(env *Env, cfg RunConfig) (*Result, error) {
	label := cfg.ProfLabel
	if label == "" && cfg.Strategy != nil {
		label = cfg.Strategy.Name()
	}
	return labeled("arm", label, func() (*Result, error) { return run(env, cfg) })
}

func run(env *Env, cfg RunConfig) (*Result, error) {
	if len(cfg.Workloads) == 0 {
		return nil, ErrNoWorkloads
	}
	if cfg.Strategy == nil {
		return nil, ErrNoStrategy
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = DefaultHorizon
	}
	start := env.Engine.Now()
	byID := make(map[string]int, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		byID[w.Spec.ID] = i
	}
	// Instance costs sum in instance-ID order, not termination order.
	var costs []instanceCost
	var interruptions []time.Time
	d := newDriver(env, cfg.Strategy, cfg.InstanceType, states(cfg.Workloads), func(tag string) (int, bool) {
		i, ok := byID[tag]
		return i, ok
	}, func(inst *cloud.Instance, _ int, interrupted bool) {
		costs = append(costs, instanceCost{inst.ID, inst.CostUSD})
		if interrupted {
			interruptions = append(interruptions, inst.TerminatedAt)
		}
	})
	if cfg.Trace {
		d.timeline = &Timeline{}
	}
	if err := d.setupCheckpoints(cfg); err != nil {
		return nil, err
	}
	// Run subscribes to notices even when no workload checkpoints: the
	// subscription is what makes the provider schedule notice events,
	// and the pinned outputs' event order includes them.
	env.Provider.OnInterruptionNotice(d.onNotice)

	// SpotVerse's Controller schedules its own open-request sweep.
	if _, isSpotVerse := cfg.Strategy.(*core.SpotVerse); !isSpotVerse && !cfg.DisableSweep {
		if err := env.CloudWatch.Schedule("harness-open-request-sweep", DefaultSweepInterval, func(time.Time) {
			env.Provider.EvaluateOpenRequests()
		}); err != nil {
			return nil, err
		}
	}

	if err := d.placeInitial(); err != nil {
		return nil, err
	}

	// Step, then check: the first event past the horizon still runs.
	n, horizon := len(cfg.Workloads), start.Add(cfg.Horizon)
	for d.completed != n && env.Engine.Pending() > 0 && !env.Engine.Now().After(horizon) {
		env.Engine.Step()
	}
	env.CloudWatch.StopAll()
	d.terminateAll()

	if d.completed != n && !cfg.AllowIncomplete {
		return nil, fmt.Errorf("%w: %d/%d done after %v (strategy %s)",
			ErrHorizon, d.completed, n, cfg.Horizon, cfg.Strategy.Name())
	}

	res := &Result{
		StrategyName:          cfg.Strategy.Name(),
		InstanceType:          cfg.InstanceType,
		Workloads:             n,
		Completed:             d.completed,
		Interruptions:         d.interruptions,
		InterruptionStamps:    interruptions,
		InterruptionsByRegion: byRegion(env.Catalog(), d.interruptionsByRegion),
		LaunchesByRegion:      byRegion(env.Catalog(), d.launchesByRegion),
		OnDemandLaunches:      d.onDemandLaunches,
		Start:                 start,
		LostShards:            d.lostShards,
		DuplicateRelaunches:   d.duplicateRelaunches,
		UndetectedCorruption:  d.undetectedCorruption,
		Timeline:              d.timeline,
	}
	for i, w := range cfg.Workloads {
		if d.done[i] {
			res.CompletionStamps = append(res.CompletionStamps, w.CompletedAt)
		}
	}
	sort.Slice(res.CompletionStamps, func(i, j int) bool { return res.CompletionStamps[i].Before(res.CompletionStamps[j]) })
	if n := len(res.CompletionStamps); n > 0 {
		res.MakespanHours = res.CompletionStamps[n-1].Sub(start).Hours()
		var sum float64
		for _, ts := range res.CompletionStamps {
			sum += ts.Sub(start).Hours()
		}
		res.MeanCompletionHours = sum / float64(n)
	}
	if d.ckpt != nil && d.ckpt.durable != nil {
		res.Durability = d.ckpt.durable.Stats()
	}
	slices.SortFunc(costs, func(a, b instanceCost) int { return a.id.Compare(b.id) })
	for _, c := range costs {
		res.InstanceCostUSD += c.usd
	}
	res.ServiceCostUSD = env.Ledger.Total()
	res.TotalCostUSD = res.InstanceCostUSD + res.ServiceCostUSD
	full := cost.NewLedger()
	full.Merge(env.Ledger)
	full.MustAdd(cost.CategoryInstances, res.InstanceCostUSD)
	res.Breakdown = full.Breakdown()
	return res, nil
}
