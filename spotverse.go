// Package spotverse is the public API of the SpotVerse reproduction: a
// multi-region spot-instance manager for long-running (bioinformatics)
// workloads, together with the simulated cloud substrate it is evaluated
// on.
//
// The package re-exports the library's main types and wires them together
// behind two entry points:
//
//   - NewSimulation builds a deterministic simulated cloud (regions, spot
//     markets, EC2-like provider, S3/DynamoDB/Lambda/EventBridge/
//     CloudWatch/Step Functions substrates).
//   - Simulation.NewManager deploys SpotVerse (Monitor + Optimizer +
//     Controller) onto it; Simulation.Run executes a workload set under
//     any Strategy and reports interruptions, completion times, and the
//     differential cost model.
//
// A minimal comparison looks like:
//
//	sim := spotverse.NewSimulation(42)
//	mgr, _ := sim.NewManager(spotverse.ManagerConfig{InstanceType: spotverse.M5XLarge})
//	ws, _ := sim.GenerateWorkloads(spotverse.WorkloadOptions{Kind: spotverse.KindStandard, Count: 40})
//	res, _ := sim.Run(spotverse.RunConfig{Workloads: ws, Strategy: mgr, InstanceType: spotverse.M5XLarge})
//	fmt.Println(res.Interruptions, res.TotalCostUSD)
package spotverse

import (
	"time"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/cloud"
	"spotverse/internal/core"
	"spotverse/internal/durable"
	"spotverse/internal/experiment"
	"spotverse/internal/fuzz"
	"spotverse/internal/market"
	"spotverse/internal/predict"
	"spotverse/internal/serve"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// Re-exported identity types.
type (
	// Region identifies a cloud region.
	Region = catalog.Region
	// AZ identifies an availability zone.
	AZ = catalog.AZ
	// InstanceType identifies an instance type.
	InstanceType = catalog.InstanceType
	// Catalog is the static cloud inventory.
	Catalog = catalog.Catalog
	// Market is the spot-market model.
	Market = market.Model
	// AdvisorEntry is one Spot-Instance-Advisor row.
	AdvisorEntry = market.AdvisorEntry
	// Provider is the EC2-like IaaS provider.
	Provider = cloud.Provider
	// Strategy decides workload placement.
	Strategy = strategy.Strategy
	// Placement is a (region, lifecycle) decision.
	Placement = strategy.Placement
	// Manager is the SpotVerse manager (Monitor+Optimizer+Controller).
	Manager = core.SpotVerse
	// ManagerConfig parameterises a Manager. DiscountStale turns on the
	// degraded-mode Optimizer; DisableHardening is the hardening
	// ablation (no recovery sweep, no circuit breakers).
	ManagerConfig = core.Config
	// Workload tracks one workload's progress.
	Workload = workload.State
	// WorkloadSpec describes a workload.
	WorkloadSpec = workload.Spec
	// WorkloadOptions tunes workload generation.
	WorkloadOptions = workload.GenOptions
	// RunConfig parameterises an experiment run.
	RunConfig = experiment.RunConfig
	// Result aggregates a run's metrics.
	Result = experiment.Result
	// WorkloadFleet is the flat struct-of-arrays workload state for
	// fleet-scale runs (see RunFleetSharded).
	WorkloadFleet = workload.FleetState
	// FleetShardedConfig parameterises a sharded fleet-scale run (see
	// Simulation.RunFleetSharded).
	FleetShardedConfig = experiment.FleetShardedConfig
	// FleetResult aggregates a fleet-scale run's streamed metrics.
	FleetResult = experiment.FleetResult
	// Timeline is the structured event log (RunConfig.Trace).
	Timeline = experiment.Timeline
	// AdaptiveConfig tunes the learning strategy.
	AdaptiveConfig = predict.Config
	// ChaosSchedule declares what a chaos injector injects.
	ChaosSchedule = chaos.Schedule
	// ChaosIntensity grades a chaos schedule.
	ChaosIntensity = chaos.Intensity
	// ChaosInjector injects deterministic control-plane faults.
	ChaosInjector = chaos.Injector
	// ChaosStats summarises what an injector injected.
	ChaosStats = chaos.Stats
	// ControllerKill schedules a control-plane crash-restart.
	ControllerKill = chaos.ControllerKill
	// ObjectCorruption bit-flips S3 reads under a key prefix.
	ObjectCorruption = chaos.ObjectCorruption
	// BucketLoss wipes a whole S3 bucket at an instant.
	BucketLoss = chaos.BucketLoss
	// Partition cuts the network to regions for a window.
	Partition = chaos.Partition
	// SplitBrain runs a rival controller incarnation for a window.
	SplitBrain = chaos.SplitBrain
	// FuzzPlan is one seed-derived composite fault scenario.
	FuzzPlan = fuzz.Plan
	// FuzzEvent is one fault in a FuzzPlan.
	FuzzEvent = fuzz.Event
	// FuzzInvariant is one system-wide property checked after a trial.
	FuzzInvariant = fuzz.Invariant
	// FuzzViolation is one invariant breach.
	FuzzViolation = fuzz.Violation
	// FuzzRepro is a shrunken, byte-identically replayable failure.
	FuzzRepro = fuzz.Repro
	// FuzzCampaignConfig parameterises a fuzz campaign.
	FuzzCampaignConfig = fuzz.CampaignConfig
	// FuzzCampaignResult summarises a fuzz campaign.
	FuzzCampaignResult = fuzz.CampaignResult
	// DurabilityMode selects how runs persist checkpoint manifests.
	DurabilityMode = experiment.DurabilityMode
	// DurabilityStats summarises the durable store's activity.
	DurabilityStats = durable.Stats
	// Server is the always-on placement service (cmd/spotverse-serve).
	Server = serve.Server
	// ServeConfig parameterises a Server: worker pool, admission
	// control, rate limit, deadlines, drain, breaker, clock.
	ServeConfig = serve.Config
	// ServeStats snapshots a Server's outcome counters.
	ServeStats = serve.Stats
	// ServeTraceEntry is one recorded request arrival (JSONL traces).
	ServeTraceEntry = serve.TraceEntry
	// ServeReplayOptions tunes trace replay output.
	ServeReplayOptions = serve.ReplayOptions
	// ServeReplaySummary aggregates a deterministic trace replay.
	ServeReplaySummary = serve.ReplaySummary
)

// Re-exported chaos intensities for ChaosPreset.
const (
	ChaosOff    = chaos.Off
	ChaosLow    = chaos.Low
	ChaosMedium = chaos.Medium
	ChaosSevere = chaos.Severe
)

// ChaosPreset returns the canonical fault schedule for an intensity,
// with windowed events anchored at start.
func ChaosPreset(i ChaosIntensity, start time.Time) ChaosSchedule {
	return chaos.Preset(i, start)
}

// ChaosPartitioned is the sentinel error a partitioned service call
// fails with (errors.Is-able through injected fault wrapping).
var ChaosPartitioned = chaos.Partitioned

// FuzzGenerate derives one fault plan from a seed, deterministically.
func FuzzGenerate(seed int64) FuzzPlan { return fuzz.Generate(seed) }

// FuzzInvariants returns the invariant catalog, sorted by name.
func FuzzInvariants() []FuzzInvariant { return fuzz.Registry() }

// FuzzCampaign runs one plan per seed through the full stack, checks
// every invariant, and shrinks each failure into a replayable repro.
func FuzzCampaign(cfg FuzzCampaignConfig) (*FuzzCampaignResult, error) {
	return fuzz.Campaign(cfg)
}

// FuzzVerifyRepro re-executes a repro twice and errors unless both runs
// reproduce its recorded fingerprint and violation set byte-identically.
func FuzzVerifyRepro(r *FuzzRepro) error { return fuzz.VerifyRepro(r) }

// Re-exported instance types (the paper's evaluation set).
const (
	M5Large   = catalog.M5Large
	M5XLarge  = catalog.M5XLarge
	M52XLarge = catalog.M52XLarge
	C52XLarge = catalog.C52XLarge
	R52XLarge = catalog.R52XLarge
	P32XLarge = catalog.P32XLarge
)

// Re-exported workload kinds.
const (
	// KindStandard workloads restart from zero on interruption.
	KindStandard = workload.KindStandard
	// KindCheckpoint workloads resume from their last completed shard.
	KindCheckpoint = workload.KindCheckpoint
)

// Re-exported selection modes for ManagerConfig.Selection.
const (
	// SelectAtLeast keeps regions scoring >= threshold (Algorithm 1).
	SelectAtLeast = core.SelectAtLeast
	// SelectBucket keeps regions scoring == threshold (threshold study).
	SelectBucket = core.SelectBucket
)

// Re-exported durability modes for RunConfig.Durability. Durability is
// off by default: manifest writes change the rendered cost totals, so
// runs opt in (pair DurabilityReplicated with ManagerConfig.Journal for
// the full crash-tolerant stack).
const (
	// DurabilityOff keeps the seed's legacy checkpoint accounting.
	DurabilityOff = experiment.DurabilityOff
	// DurabilitySingle writes unverified single-bucket manifests.
	DurabilitySingle = experiment.DurabilitySingle
	// DurabilityReplicated writes CRC-checked manifests with async
	// cross-region replication, read-path failover, and anti-entropy.
	DurabilityReplicated = experiment.DurabilityReplicated
)

// SetParallelism bounds the experiment harness's worker pool: how many
// independent simulations (trial seeds, figure cells, sweep cells) run
// concurrently. n <= 1 forces fully sequential execution. Results are
// collected in input order, so rendered output is byte-identical for
// every setting. Returns the previous bound.
func SetParallelism(n int) int { return experiment.SetWorkers(n) }

// Parallelism reports the current worker-pool bound (always >= 1).
func Parallelism() int { return experiment.Workers() }

// Simulation is one deterministic simulated cloud plus the services
// SpotVerse deploys onto.
type Simulation struct {
	env  *experiment.Env
	seed int64
}

// NewSimulation builds a simulation seeded for reproducibility.
func NewSimulation(seed int64) *Simulation {
	return &Simulation{env: experiment.NewEnv(seed), seed: seed}
}

// NewSimulationAt builds a simulation whose clock starts at a specific
// instant (markets evolve from there).
func NewSimulationAt(seed int64, start time.Time) *Simulation {
	return &Simulation{env: experiment.NewEnvAt(seed, start), seed: seed}
}

// Catalog exposes the region and instance inventory.
func (s *Simulation) Catalog() *Catalog { return s.env.Catalog() }

// Market exposes the spot-market model (prices, advisor metrics).
func (s *Simulation) Market() *Market { return s.env.Market }

// Provider exposes the EC2-like provider.
func (s *Simulation) Provider() *Provider { return s.env.Provider }

// Now reports current simulated time.
func (s *Simulation) Now() time.Time { return s.env.Engine.Now() }

// NewManager deploys a SpotVerse manager onto the simulation. One manager
// per simulation: it registers Lambda functions and CloudWatch rules.
func (s *Simulation) NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Seed == 0 {
		cfg.Seed = s.seed
	}
	return experiment.NewSpotVerse(s.env, cfg)
}

// NewSingleRegionStrategy returns the traditional single-region baseline.
func (s *Simulation) NewSingleRegionStrategy(t InstanceType, r Region) (Strategy, error) {
	return baselines.NewSingleRegion(s.env.Catalog(), t, r)
}

// NewOnDemandStrategy returns the cheapest-on-demand baseline.
func (s *Simulation) NewOnDemandStrategy(t InstanceType) (Strategy, error) {
	return baselines.NewOnDemand(s.env.Catalog(), t)
}

// NewSkyPilotStrategy returns the SkyPilot-style cheapest-spot baseline.
func (s *Simulation) NewSkyPilotStrategy(t InstanceType) (Strategy, error) {
	return baselines.NewSkyPilotLike(s.env.Engine, s.env.Market, t)
}

// NewAdaptiveStrategy returns the learning strategy (the paper's future
// work): it never reads the advisor and instead learns per-region,
// per-hour-of-week interruption hazards from its own observations.
func (s *Simulation) NewAdaptiveStrategy(t InstanceType, cfg AdaptiveConfig) (Strategy, error) {
	if cfg.Seed == 0 {
		cfg.Seed = s.seed
	}
	return predict.NewAdaptive(s.env.Engine, s.env.Market, t, cfg)
}

// EnableSeasonality turns on the market's hour-of-week interruption
// modulation (weekday business-hour peaks).
func (s *Simulation) EnableSeasonality() { s.env.Market.EnableSeasonality() }

// InjectOutage makes spot launches in the region fail during [from, to)
// — failure injection for resilience testing.
func (s *Simulation) InjectOutage(r Region, from, to time.Time) error {
	return s.env.Market.InjectOutage(r, from, to)
}

// InjectChaos builds a deterministic fault injector from the schedule
// and installs it on every control-plane service in the simulation. Call
// it before NewManager so rules registered later are covered too, then
// arm ScheduleControllerKills on the manager — the order the experiment
// harness's chaos cells follow. An Off schedule leaves runs
// bit-identical to an uninjected simulation. The returned injector
// exposes Stats for post-run accounting.
func (s *Simulation) InjectChaos(sched ChaosSchedule) *ChaosInjector {
	inj := chaos.NewInjector(s.env.Engine, s.seed, sched)
	experiment.ApplyChaos(s.env, inj)
	return inj
}

// ScheduleControllerKills arms the schedule's controller kills against
// a deployed manager: at each instant the control plane crash-restarts,
// losing all in-memory pending-migration and breaker state. A manager
// built with ManagerConfig.Journal replays its DynamoDB write-ahead
// journal on restart; one without starts cold.
func (s *Simulation) ScheduleControllerKills(inj *ChaosInjector, mgr *Manager) {
	experiment.ScheduleControllerKills(s.env, inj, mgr)
}

// Serve deploys the always-on placement service over a deployed
// manager: /v1/place, /v1/advisor, /v1/migrations behind admission
// control, rate limiting, per-request deadlines, a serve-level circuit
// breaker with cached-snapshot degradation, and graceful drain. When
// cfg.Clock is nil the simulation engine is used, which is what replay
// and tests want; a live daemon injects a wall clock instead (see
// cmd/spotverse-serve).
func (s *Simulation) Serve(mgr *Manager, cfg ServeConfig) (*Server, error) {
	if cfg.Clock == nil {
		cfg.Clock = s.env.Engine
	}
	return serve.New(cfg, serve.NewSimBackend(s.env.Engine, mgr))
}

// GenerateServeTrace synthesizes a deterministic serving request trace
// (Poisson arrivals at qps, place-heavy endpoint mix) for Server
// replay; same (simulation seed, n, qps) → identical trace.
func (s *Simulation) GenerateServeTrace(n int, qps float64) []ServeTraceEntry {
	return experiment.GenerateServeTrace(s.seed, n, qps)
}

// ReplayServe drives a trace through srv's full gate pipeline on the
// simulation clock. srv must have been built by Serve with a nil
// Clock (i.e. on this simulation's engine); same (simulation, trace,
// config) → byte-identical output and summary.
func (s *Simulation) ReplayServe(srv *Server, entries []ServeTraceEntry, opts ServeReplayOptions) (*ServeReplaySummary, error) {
	return srv.Replay(s.env.Engine, entries, opts)
}

// GenerateWorkloads builds a reproducible workload set.
func (s *Simulation) GenerateWorkloads(opts WorkloadOptions) ([]*Workload, error) {
	return workload.Generate(simclock.Stream(s.seed, "public-workloads"), opts)
}

// Run executes a workload set under a strategy.
func (s *Simulation) Run(cfg RunConfig) (*Result, error) {
	return experiment.Run(s.env, cfg)
}

// GenerateFleet builds the struct-of-arrays equivalent of
// GenerateWorkloads for standard workloads: same RNG stream, same
// workloads, flat columns. Checkpoint kinds are rejected; they run
// through Run.
func (s *Simulation) GenerateFleet(opts WorkloadOptions) (*WorkloadFleet, error) {
	return workload.GenerateFleet(simclock.Stream(s.seed, "public-workloads"), opts)
}

// RunFleetSharded executes a standard-workload fleet partitioned across
// at least cfg.Shards independent shard engines, one per cache-sized
// block of a large fleet, running on the worker pool (see
// SetParallelism). Unlike Run it does not drive this simulation's
// environment: every shard builds a fresh environment from the
// simulation seed over the shared market snapshot, and cfg.NewStrategy
// builds one strategy per shard. The merged result is byte-identical at
// every shard and worker count.
func (s *Simulation) RunFleetSharded(cfg FleetShardedConfig) (*FleetResult, error) {
	return experiment.RunFleetSharded(s.seed, cfg)
}
