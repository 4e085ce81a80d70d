package experiment

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/core"
	"spotverse/internal/serve"
)

// This file is the fault-space fuzzer's harness: it runs the full stack
// — experiment driver, journaled + lease-fenced SpotVerse control
// plane, durable checkpoint store — under an arbitrary composite chaos
// schedule and collects every observable the fuzzer's invariants
// inspect into one evidence bundle.

// Exported checkpoint-store coordinates, so fault-plan builders (the
// fault-space fuzzer) can target the durable manifests without
// hard-coding the strings.
const (
	// CheckpointBucket is the primary checkpoint bucket.
	CheckpointBucket = checkpointBucket
	// ManifestPrefix is the key prefix of durable progress manifests.
	ManifestPrefix = manifestPrefix
)

// BreakerTransition is one observed circuit-breaker state change, keyed
// "<controllerID>/<breakerKey>" (see core.Config.BreakerObserver).
type BreakerTransition struct {
	Key   string `json:"key"`
	From  string `json:"from"`
	To    string `json:"to"`
	Trips int    `json:"trips"`
}

// ChaosRunConfig parameterises one fuzz-trial batch run.
type ChaosRunConfig struct {
	// Seed drives every random stream in the run.
	Seed int64
	// Workloads is the checkpoint-workload count.
	Workloads int
	// Schedule is the composite fault plan; windowed events must be
	// anchored at simclock.Epoch (the fresh environment's start).
	Schedule chaos.Schedule
	// DisableFencing forwards core.Config.DisableFencing — the
	// deliberately broken build whose split-brain duplicates the fuzzer
	// must catch.
	DisableFencing bool
	// Horizon caps simulated time (default experiment.DefaultHorizon).
	Horizon time.Duration
}

// ChaosEvidence is everything one batch run exposes to the fuzzer's
// invariant checkers.
type ChaosEvidence struct {
	// Result is the run's full result, including the event Timeline
	// (always traced) and the driver's violation counters.
	Result *Result

	// Controller recovery counters (core.Controller.RecoveryStats).
	Restarts          int
	Replayed          int
	DroppedPendings   int
	RefusedRelaunches int
	JournalLost       int

	// Lease counters (core.Controller.LeaseStats), primary incarnation.
	LeaseAcquires   int
	LeaseRenewals   int
	LeaseTakeovers  int
	LeaseFenced     int
	LeaseLost       int
	CommitDeferrals int

	// Split-brain actuation outcomes: windows whose rival spawned, and
	// windows whose spawn failed (a faulted journal-table read at spawn
	// time, for instance).
	RivalsSpawned    int
	RivalSpawnErrors int

	// Breakers is the ordered breaker-transition feed from every
	// incarnation, exactly as the observer saw it.
	Breakers []BreakerTransition
}

// ChaosRun executes one fuzz trial: a fresh environment at cfg.Seed,
// the journaled + lease-fenced SpotVerse stack, durable replicated
// checkpoints, and cfg.Schedule's full fault plan (including controller
// kills and split-brain windows) actuated against it. The run always
// traces its timeline and tolerates incomplete workloads — deciding
// whether the outcome is acceptable is the invariant checkers' job, not
// the harness's.
func ChaosRun(cfg ChaosRunConfig) (*ChaosEvidence, error) {
	if cfg.Workloads <= 0 {
		cfg.Workloads = CrashWorkloads
	}
	ev := &ChaosEvidence{}
	cell, err := newChaosCell(cfg.Seed, cfg.Schedule, &core.Config{
		InstanceType:     catalog.M5XLarge,
		Threshold:        5,
		FixedStartRegion: BaselineRegionM5XLarge,
		Seed:             cfg.Seed,
		RecoveryAfter:    crashRecoveryAfter,
		Journal:          true,
		Lease:            true,
		DisableFencing:   cfg.DisableFencing,
		BreakerObserver: func(key, from, to string, trips int) {
			ev.Breakers = append(ev.Breakers, BreakerTransition{Key: key, From: from, To: to, Trips: trips})
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fuzz harness: %w", err)
	}

	ws, err := genCheckpoint(cfg.Seed, cfg.Workloads)
	if err != nil {
		return nil, err
	}
	res, err := Run(cell.env, RunConfig{
		Workloads:       ws,
		Strategy:        cell.sv,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
		Durability:      DurabilityReplicated,
		Trace:           true,
		Horizon:         cfg.Horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("fuzz harness: %w", err)
	}
	ev.Result = res
	ev.RivalsSpawned, ev.RivalSpawnErrors = cell.rivalsSpawned, cell.rivalSpawnErrors
	ev.Restarts, ev.Replayed, ev.DroppedPendings, ev.RefusedRelaunches, ev.JournalLost, _ =
		cell.sv.Controller().RecoveryStats()
	ev.LeaseAcquires, ev.LeaseRenewals, ev.LeaseTakeovers, ev.LeaseFenced, ev.LeaseLost, ev.CommitDeferrals =
		cell.sv.Controller().LeaseStats()
	return ev, nil
}

// Fingerprint folds every observable of the run — completion and
// violation counters, costs at micro-dollar precision, the full event
// timeline, the breaker feed, and the lease counters — into one hash.
// Two runs of the same plan must produce identical fingerprints; the
// fuzzer's determinism arm and the repro replayer both compare them.
func (e *ChaosEvidence) Fingerprint() string {
	h := fnv.New64a()
	add := func(parts ...string) {
		for _, p := range parts {
			_, _ = h.Write([]byte(p))
			_, _ = h.Write([]byte{0})
		}
	}
	r := e.Result
	add(strconv.Itoa(r.Workloads), strconv.Itoa(r.Completed), strconv.Itoa(r.Interruptions),
		strconv.Itoa(r.OnDemandLaunches), strconv.Itoa(r.LostShards),
		strconv.Itoa(r.DuplicateRelaunches), strconv.Itoa(r.UndetectedCorruption),
		strconv.FormatFloat(r.TotalCostUSD, 'f', 6, 64),
		strconv.FormatFloat(r.MakespanHours, 'f', 6, 64))
	regions := make([]string, 0, len(r.LaunchesByRegion))
	for reg := range r.LaunchesByRegion {
		regions = append(regions, string(reg))
	}
	sort.Strings(regions)
	for _, reg := range regions {
		add(reg, strconv.Itoa(r.LaunchesByRegion[catalog.Region(reg)]))
	}
	for _, tev := range r.Timeline.Events() {
		add(tev.At.Format(time.RFC3339Nano), string(tev.Kind), tev.Workload,
			string(tev.Instance), string(tev.Region))
	}
	for _, b := range e.Breakers {
		add(b.Key, b.From, b.To, strconv.Itoa(b.Trips))
	}
	add(strconv.Itoa(e.Restarts), strconv.Itoa(e.Replayed), strconv.Itoa(e.DroppedPendings),
		strconv.Itoa(e.RefusedRelaunches), strconv.Itoa(e.JournalLost),
		strconv.Itoa(e.LeaseAcquires), strconv.Itoa(e.LeaseRenewals), strconv.Itoa(e.LeaseTakeovers),
		strconv.Itoa(e.LeaseFenced), strconv.Itoa(e.LeaseLost), strconv.Itoa(e.CommitDeferrals),
		strconv.Itoa(e.RivalsSpawned), strconv.Itoa(e.RivalSpawnErrors))
	return strconv.FormatUint(h.Sum64(), 16)
}

// NewServeSimWith deploys a serving environment under a caller-supplied
// chaos schedule — the fault-space fuzzer's serve arm, which builds its
// own short-timebase schedules instead of the intensity presets.
// Windowed events must be anchored at simclock.Epoch.
func NewServeSimWith(seed int64, sched chaos.Schedule) (*ServeSim, error) {
	cell, err := newChaosCell(seed, sched, &core.Config{
		InstanceType:  catalog.M5XLarge,
		Threshold:     5,
		Seed:          seed,
		DiscountStale: true,
	})
	if err != nil {
		return nil, fmt.Errorf("serve sim: %w", err)
	}
	backend := serve.NewSimBackend(cell.env.Engine, cell.sv)
	backend.SetFault(cell.inj.ServiceFault(chaos.ServiceServe))
	return &ServeSim{Env: cell.env, Manager: cell.sv, Backend: backend, Injector: cell.inj}, nil
}
