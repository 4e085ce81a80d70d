package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/core"
	"spotverse/internal/cost"
	"spotverse/internal/durable"
	"spotverse/internal/services/dynamo"
	"spotverse/internal/simclock"
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
	var (
		res *Result
		err error
	)
	pprof.Do(context.Background(), pprof.Labels("arm", label), func(context.Context) {
		res, err = run(env, cfg)
	})
	return res, err
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
	res := &Result{
		StrategyName:          cfg.Strategy.Name(),
		InstanceType:          cfg.InstanceType,
		Workloads:             len(cfg.Workloads),
		InterruptionsByRegion: make(map[catalog.Region]int),
		LaunchesByRegion:      make(map[catalog.Region]int),
		Start:                 start,
	}

	byID := make(map[string]*workload.State, len(cfg.Workloads))
	ids := make([]string, 0, len(cfg.Workloads))
	hasCheckpoint := false
	for _, w := range cfg.Workloads {
		byID[w.Spec.ID] = w
		ids = append(ids, w.Spec.ID)
		if w.Spec.Kind == workload.KindCheckpoint {
			hasCheckpoint = true
		}
	}
	sort.Strings(ids)

	d := newDriver(env, cfg, byID, res)
	if cfg.Trace {
		res.Timeline = &Timeline{}
		d.timeline = res.Timeline
	}
	if hasCheckpoint {
		if err := d.setupCheckpointStores(); err != nil {
			return nil, err
		}
	}
	env.Provider.OnLaunch(d.onLaunch)
	env.Provider.OnInterruptionNotice(d.onNotice)
	env.Provider.OnTerminate(d.onTerminate)
	if target, ok := cfg.Strategy.(RelaunchResolverTarget); ok {
		target.SetRelaunchResolver(d.relaunchFor)
	}
	if d.durable != nil && cfg.Durability == DurabilityReplicated {
		// Anti-entropy rides the same 15-minute cadence as the
		// open-request sweep: re-replicate any manifest copy that has
		// diverged (corrupted, wiped, or version-lagged).
		if err := env.CloudWatch.Schedule("checkpoint-anti-entropy", DefaultSweepInterval, func(time.Time) {
			//spotverse:allow errdrop anti-entropy is best-effort: a failed sweep retries next interval and surfaces in durable.Stats repair counters
			_, _ = d.durable.SyncReplicas(manifestPrefix)
		}); err != nil {
			return nil, err
		}
	}

	// SpotVerse's Controller schedules its own open-request sweep.
	if _, isSpotVerse := cfg.Strategy.(*core.SpotVerse); !isSpotVerse && !cfg.DisableSweep {
		if err := env.CloudWatch.Schedule("harness-open-request-sweep", DefaultSweepInterval, func(time.Time) {
			env.Provider.EvaluateOpenRequests()
		}); err != nil {
			return nil, err
		}
	}

	placements, err := cfg.Strategy.PlaceInitial(ids)
	if err != nil {
		return nil, fmt.Errorf("experiment: initial placement: %w", err)
	}
	for _, id := range ids {
		p, ok := placements[id]
		if !ok {
			return nil, fmt.Errorf("experiment: strategy left %q unplaced", id)
		}
		if err := d.provision(id, p); err != nil {
			return nil, err
		}
	}

	horizon := start.Add(cfg.Horizon)
	done := func() bool { return d.completed == len(cfg.Workloads) }
	for !done() {
		if env.Engine.Pending() == 0 {
			break
		}
		if env.Engine.Now().After(horizon) {
			break
		}
		env.Engine.Step()
	}
	env.CloudWatch.StopAll()

	// Terminate any instances still running (completed runs already
	// terminated theirs; this covers AllowIncomplete horizons).
	for _, inst := range env.Provider.RunningInstances() {
		_ = env.Provider.Terminate(inst.ID)
	}

	if !done() && !cfg.AllowIncomplete {
		return nil, fmt.Errorf("%w: %d/%d done after %v (strategy %s)",
			ErrHorizon, d.completed, len(cfg.Workloads), cfg.Horizon, cfg.Strategy.Name())
	}

	res.Completed = d.completed
	sort.Slice(res.CompletionStamps, func(i, j int) bool { return res.CompletionStamps[i].Before(res.CompletionStamps[j]) })
	if n := len(res.CompletionStamps); n > 0 {
		res.MakespanHours = res.CompletionStamps[n-1].Sub(start).Hours()
		var sum float64
		for _, ts := range res.CompletionStamps {
			sum += ts.Sub(start).Hours()
		}
		res.MeanCompletionHours = sum / float64(n)
	}
	if d.durable != nil {
		res.Durability = d.durable.Stats()
	}
	// Instance costs sum in instance-ID order, not termination order.
	sort.Slice(d.costs, func(i, j int) bool { return d.costs[i].id < d.costs[j].id })
	for _, c := range d.costs {
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

// driver maps instances to workloads and reacts to provider events.
type driver struct {
	env  *Env
	cfg  RunConfig
	byID map[string]*workload.State
	res  *Result

	completionEv map[string]*simclock.Event
	completed    int
	timeline     *Timeline
	// ckptFailed marks workloads whose latest two-minute-warning
	// checkpoint write did not become durable; their banked progress is
	// rolled back at termination.
	ckptFailed map[string]bool
	// durable is the manifest durability layer (nil when DurabilityOff).
	durable *durable.Store
	// manifestVer and lastManifest track, per workload, the next manifest
	// version to write and the shard count of the last manifest that was
	// acknowledged durable (the value progress is clamped to).
	manifestVer  map[string]int
	lastManifest map[string]int
	// activeInst maps workloads to their running instance, catching
	// duplicate relaunches (two instances serving one workload).
	activeInst map[string]cloud.InstanceID
	// costs logs each terminated instance's final cost: the provider
	// releases the records themselves.
	costs []instanceCost
}

type instanceCost struct {
	id  cloud.InstanceID
	usd float64
}

func newDriver(env *Env, cfg RunConfig, byID map[string]*workload.State, res *Result) *driver {
	return &driver{
		env:          env,
		cfg:          cfg,
		byID:         byID,
		res:          res,
		completionEv: make(map[string]*simclock.Event),
		ckptFailed:   make(map[string]bool),
		manifestVer:  make(map[string]int),
		lastManifest: make(map[string]int),
		activeInst:   make(map[string]cloud.InstanceID),
	}
}

func (d *driver) setupCheckpointStores() error {
	if err := d.env.Dynamo.CreateTable(CheckpointTable); err != nil {
		return err
	}
	if d.cfg.CheckpointVia == CheckpointEFS {
		return d.env.EFS.Create(checkpointBucket, checkpointBucketRegion)
	}
	if err := d.env.S3.CreateBucket(checkpointBucket, checkpointBucketRegion); err != nil {
		return err
	}
	if d.cfg.Durability != DurabilityOff {
		ds, err := durable.New(d.env.Engine, d.env.S3, durable.Config{
			Primary:        checkpointBucket,
			PrimaryRegion:  checkpointBucketRegion,
			Replica:        CheckpointReplicaBucket,
			ReplicaRegion:  checkpointReplicaRegion,
			Replicate:      d.cfg.Durability == DurabilityReplicated,
			ReplicationLag: checkpointReplicationLag,
		})
		if err != nil {
			return err
		}
		d.durable = ds
	}
	return nil
}

// manifestKey is the durable manifest's S3 key for one workload.
func manifestKey(id string) string { return manifestPrefix + id }

// relaunchFor builds the relaunch closure handed to strategies for one
// workload — also the factory a journaled Controller uses to reattach
// closures to replayed migrations after a crash-restart.
func (d *driver) relaunchFor(id string) strategy.RelaunchFunc {
	w, ok := d.byID[id]
	if !ok {
		return nil
	}
	return func(p strategy.Placement) {
		if w.Completed {
			return
		}
		d.timeline.add(Event{At: d.env.Engine.Now(), Kind: EventRelaunch, Workload: id, Region: p.Region, Lifecycle: p.Lifecycle})
		_ = d.provision(id, p)
	}
}

// RelaunchResolverTarget is implemented by strategies that can rebuild
// relaunch closures after a crash-restart (core.SpotVerse with the
// journal on). The harness wires its relaunch factory in when present.
type RelaunchResolverTarget interface {
	SetRelaunchResolver(fn func(id string) strategy.RelaunchFunc)
}

// checkpointWrite persists a workload's shard slice from a region. A
// non-nil error means the slice is not durable.
func (d *driver) checkpointWrite(key string, size int64, from catalog.Region) error {
	if d.cfg.CheckpointVia == CheckpointEFS {
		if !d.env.EFS.Mounted(checkpointBucket, from) {
			if err := d.env.EFS.Replicate(checkpointBucket, from); err != nil {
				return err
			}
		}
		return d.env.EFS.WriteSized(checkpointBucket, key, size, from)
	}
	return d.env.S3.PutSized(checkpointBucket, key, size, from)
}

// checkpointRead re-fetches a workload's data on resume.
func (d *driver) checkpointRead(key string, from catalog.Region) {
	if d.cfg.CheckpointVia == CheckpointEFS {
		if !d.env.EFS.Exists(checkpointBucket, key) {
			return
		}
		if !d.env.EFS.Mounted(checkpointBucket, from) {
			_ = d.env.EFS.Replicate(checkpointBucket, from)
		}
		_, _ = d.env.EFS.ReadSized(checkpointBucket, key, from)
		return
	}
	if d.env.S3.Exists(checkpointBucket, key) {
		_, _ = d.env.S3.Get(checkpointBucket, key, from)
	}
}

// provision issues the spot request or on-demand launch for a workload.
func (d *driver) provision(id string, p strategy.Placement) error {
	switch p.Lifecycle {
	case cloud.LifecycleOnDemand:
		_, err := d.env.Provider.RunOnDemand(d.cfg.InstanceType, p.Region, id)
		if err != nil {
			return fmt.Errorf("experiment: provision %s on-demand: %w", id, err)
		}
	default:
		_, err := d.env.Provider.RequestSpot(d.cfg.InstanceType, p.Region, id)
		if err != nil {
			return fmt.Errorf("experiment: provision %s spot: %w", id, err)
		}
	}
	return nil
}

func (d *driver) onLaunch(inst *cloud.Instance) {
	w, ok := d.byID[inst.Tag]
	if !ok {
		return
	}
	if w.Completed {
		// A stale open request got fulfilled after completion.
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	if _, live := d.activeInst[w.Spec.ID]; live {
		// A second instance for a workload that already has a running
		// one: an exactly-once violation on the recovery path. Count it
		// and kill the duplicate.
		d.res.DuplicateRelaunches++
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	if err := w.BeginAttempt(); err != nil {
		_ = d.env.Provider.Terminate(inst.ID)
		return
	}
	d.activeInst[w.Spec.ID] = inst.ID
	d.res.LaunchesByRegion[inst.Region]++
	if inst.Lifecycle == cloud.LifecycleOnDemand {
		d.res.OnDemandLaunches++
	}
	d.timeline.add(Event{At: d.env.Engine.Now(), Kind: EventLaunch, Workload: w.Spec.ID, Instance: inst.ID, Region: inst.Region, Lifecycle: inst.Lifecycle})
	// Resumed checkpoint attempts re-download their dataset slice from
	// the checkpoint bucket (cross-region transfer bills apply), and in
	// durable modes verify the progress manifest before trusting their
	// banked shards — unrecoverable shards are recomputed instead.
	if w.Spec.Kind == workload.KindCheckpoint && w.Attempts > 1 && w.ShardsDone > 0 {
		d.checkpointRead("ckpt/"+w.Spec.ID, inst.Region)
		d.verifyResume(w, inst.Region)
	}
	need := w.AttemptDuration()
	instID := inst.ID
	d.completionEv[w.Spec.ID] = d.env.Engine.ScheduleAfter(need, "workload-complete:"+w.Spec.ID, func() {
		d.complete(w, instID)
	})
}

// CompletionObserver is implemented by strategies that learn from
// successful runs (e.g. the predictive strategy's survival feedback).
type CompletionObserver interface {
	OnCompleted(id string)
}

func (d *driver) complete(w *workload.State, instID cloud.InstanceID) {
	inst, err := d.env.Provider.Instance(instID)
	if err != nil || inst.State != cloud.StateRunning {
		return
	}
	if err := w.MarkComplete(d.env.Engine.Now()); err != nil {
		return
	}
	d.completed++
	d.res.CompletionStamps = append(d.res.CompletionStamps, d.env.Engine.Now())
	delete(d.completionEv, w.Spec.ID)
	d.timeline.add(Event{At: d.env.Engine.Now(), Kind: EventComplete, Workload: w.Spec.ID, Instance: instID, Region: inst.Region, Lifecycle: inst.Lifecycle})
	if obs, ok := d.cfg.Strategy.(CompletionObserver); ok {
		obs.OnCompleted(w.Spec.ID)
	}
	_ = d.env.Provider.Terminate(instID)
}

// onNotice handles the two-minute warning: checkpoint workloads persist
// their progress to DynamoDB and upload the in-flight shard slice to S3,
// exactly the paper's interruption path.
func (d *driver) onNotice(inst *cloud.Instance) {
	w, ok := d.byID[inst.Tag]
	if !ok || w.Completed || w.Spec.Kind != workload.KindCheckpoint {
		return
	}
	now := d.env.Engine.Now()
	d.timeline.add(Event{At: now, Kind: EventNotice, Workload: w.Spec.ID, Instance: inst.ID, Region: inst.Region, Lifecycle: inst.Lifecycle})
	// Progress this checkpoint will claim once the instance dies: shards
	// banked so far plus whole shards the current attempt has finished.
	done := w.ShardsDone
	if d.activeInst[w.Spec.ID] == inst.ID {
		done += w.ShardsAt(now.Sub(inst.LaunchedAt))
	}
	failed := false
	if err := d.checkpointWrite("ckpt/"+w.Spec.ID, w.CheckpointBytes(), inst.Region); err != nil {
		failed = true
	}
	// Idempotent write keyed (workload, shardsDone): a duplicate for the
	// same progress point finding the item already present is success.
	if err := d.env.Dynamo.PutIfAbsent(CheckpointTable, dynamoCheckpointItem(w, done, now)); err != nil &&
		!errors.Is(err, dynamo.ErrConditionFailed) {
		failed = true
	}
	if d.durable != nil {
		// Durable modes additionally write a checksummed progress
		// manifest; only an acknowledged manifest raises the progress
		// ceiling the termination path clamps to.
		ver := d.manifestVer[w.Spec.ID] + 1
		m := durable.Manifest{
			Workload:   w.Spec.ID,
			ShardsDone: done,
			Shards:     w.Spec.Shards,
			SizeBytes:  w.CheckpointBytes(),
			Version:    ver,
			Updated:    now,
		}
		if err := d.durable.Put(manifestKey(w.Spec.ID), m, inst.Region); err != nil {
			failed = true
		} else {
			d.manifestVer[w.Spec.ID] = ver
			if done > d.lastManifest[w.Spec.ID] {
				d.lastManifest[w.Spec.ID] = done
			}
		}
	}
	if failed {
		d.ckptFailed[w.Spec.ID] = true
	} else {
		delete(d.ckptFailed, w.Spec.ID)
	}
}

// verifyResume checks the durable manifest before a resumed attempt
// trusts its banked shards. The replicated mode reads verified with
// failover; shards the store cannot certify are dropped and counted
// lost. The single-bucket ablation reads blind: an unreadable manifest
// loses everything, and a corrupt-but-parsable one is consumed without
// notice.
func (d *driver) verifyResume(w *workload.State, from catalog.Region) {
	if d.durable == nil {
		return
	}
	key := manifestKey(w.Spec.ID)
	switch d.cfg.Durability {
	case DurabilityReplicated:
		m, err := d.durable.GetVerified(key, from)
		recoverable := 0
		if err == nil {
			recoverable = m.ShardsDone
		}
		if lost := w.ShardsDone - recoverable; lost > 0 {
			w.DropShards(lost)
			d.res.LostShards += lost
		}
	case DurabilitySingle:
		m, intact, err := d.durable.GetBlind(key, from)
		if err != nil {
			lost := w.ShardsDone
			w.DropShards(lost)
			d.res.LostShards += lost
			return
		}
		if !intact {
			d.res.UndetectedCorruption++
		}
		// The blind reader trusts whatever it parsed — including a
		// corrupt progress value — and resumes from there.
		if lost := w.ShardsDone - m.ShardsDone; lost > 0 {
			w.DropShards(lost)
			d.res.LostShards += lost
		}
	}
}

func (d *driver) onTerminate(inst *cloud.Instance, interrupted bool) {
	d.costs = append(d.costs, instanceCost{inst.ID, inst.CostUSD})
	w, ok := d.byID[inst.Tag]
	if !ok {
		return
	}
	tracked := d.activeInst[w.Spec.ID] == inst.ID
	if tracked {
		delete(d.activeInst, w.Spec.ID)
	}
	if !interrupted || w.Completed || !tracked {
		return
	}
	// Record the interruption.
	now := d.env.Engine.Now()
	d.res.Interruptions++
	d.res.InterruptionStamps = append(d.res.InterruptionStamps, now)
	d.res.InterruptionsByRegion[inst.Region]++
	d.timeline.add(Event{At: now, Kind: EventInterrupt, Workload: w.Spec.ID, Instance: inst.ID, Region: inst.Region, Lifecycle: inst.Lifecycle})
	// Bank progress and cancel the stale completion event. Progress whose
	// checkpoint write never became durable is rolled back: the next
	// attempt must recompute those shards.
	banked := w.CreditProgress(now.Sub(inst.LaunchedAt))
	if d.durable != nil {
		// Durable modes trust only the last acknowledged manifest: a
		// shard finished inside the warning window, or banked past a
		// failed manifest write, is recomputed next attempt.
		if ceiling := d.lastManifest[w.Spec.ID]; w.ShardsDone > ceiling {
			w.DropShards(w.ShardsDone - ceiling)
		}
	} else if banked > 0 && d.ckptFailed[w.Spec.ID] {
		w.DropShards(banked)
	}
	delete(d.ckptFailed, w.Spec.ID)
	if ev, ok := d.completionEv[w.Spec.ID]; ok {
		ev.Cancel()
		delete(d.completionEv, w.Spec.ID)
	}
	// Ask the strategy where to go next.
	id := w.Spec.ID
	err := d.cfg.Strategy.OnInterrupted(id, inst.Region, d.relaunchFor(id))
	if err != nil {
		// A strategy that cannot place leaves the workload stranded; the
		// run will hit the horizon and report it.
		return
	}
}
