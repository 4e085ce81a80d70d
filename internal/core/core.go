// Package core implements SpotVerse, the paper's contribution: a
// multi-region spot-instance manager built from three components
// (Section 3.2).
//
//   - The Monitor periodically collects spot prices, on-demand prices,
//     Interruption Frequencies (as Stability Scores) and Spot Placement
//     Scores into DynamoDB via CloudWatch-triggered Lambda collectors.
//   - The Optimizer implements Algorithm 1: it scores regions by
//     Placement + Stability, filters by a threshold, sorts the survivors
//     by spot price, and distributes workloads round-robin across the top
//     R regions; interrupted workloads migrate to a random top-R region
//     excluding the one that failed; when no region clears the threshold
//     it falls back to the cheapest on-demand instances.
//   - The Controller reacts to EventBridge interruption events through a
//     Step Functions-retried Lambda handler and re-provisions workloads.
package core

import (
	"errors"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/market"
	"spotverse/internal/services/cloudwatch"
	"spotverse/internal/services/dynamo"
	"spotverse/internal/services/eventbridge"
	"spotverse/internal/services/lambda"
	"spotverse/internal/services/stepfn"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

// Defaults for Config fields left zero, and the control plane's fixed
// periods.
const (
	DefaultThreshold  = 5
	DefaultMaxRegions = 4
	// DefaultCollectEvery is the Monitor's collection period.
	DefaultCollectEvery = time.Hour
	// DefaultBreakerFailures is the consecutive-failure count that trips
	// a Controller circuit breaker.
	DefaultBreakerFailures = 4
	// DefaultBreakerCooldown is how long a tripped breaker stays open.
	DefaultBreakerCooldown = 30 * time.Minute
	// DefaultRecoveryAfter is how long a pending migration may sit
	// unresolved before the sweep retries it.
	DefaultRecoveryAfter = 5 * time.Minute
	// DefaultLeaseTTL is how long a held controller lease lives without
	// renewal before a rival may take over, bumping the fencing token.
	// Renewals ride the sweep and every commit. Three sweep intervals:
	// a healthy controller renews every 15 minutes, so takeover needs a
	// sustained outage, not one missed tick.
	DefaultLeaseTTL = 3 * SweepInterval
	// DefaultControllerID is the primary incarnation's lease identity.
	DefaultControllerID = "primary"
	// MetricsTable is the DynamoDB table the Monitor writes.
	MetricsTable = "spotverse-metrics"
	// DetailTypeInterruption is the EventBridge detail-type for spot
	// interruption warnings.
	DetailTypeInterruption = "EC2 Spot Instance Interruption Warning"
	// EventSourceEC2 is the EventBridge source for EC2 events.
	EventSourceEC2 = "aws.ec2"
)

// SelectionMode controls how the threshold filters regions.
type SelectionMode int

// Selection modes.
const (
	// SelectAtLeast keeps regions whose combined score >= threshold —
	// Algorithm 1 as published.
	SelectAtLeast SelectionMode = iota + 1
	// SelectBucket keeps regions whose combined score == threshold —
	// the grouping the paper's threshold study (Table 3 / Fig. 10) uses,
	// where each threshold value maps to a disjoint region quartet.
	SelectBucket
)

// ScoringMode selects which advisor metrics feed the combined score,
// supporting the paper's Section 7 observation that other providers
// expose fewer metrics: Azure publishes interruption rates but no
// placement score, and GCP (at writing) neither.
type ScoringMode int

// Scoring modes.
const (
	// ScoreCombined is SPS + Stability — AWS, Algorithm 1 as published.
	ScoreCombined ScoringMode = iota + 1
	// ScoreStabilityOnly uses the Stability Score alone (1-3), for
	// Azure-like providers; thresholds must be on the 1-3 scale.
	ScoreStabilityOnly
	// ScorePriceOnly ignores reliability entirely (GCP-like or
	// cost-first configurations); every region passes the filter.
	ScorePriceOnly
)

// MigrationPick selects how the interruption handler chooses among the
// top-R candidate regions.
type MigrationPick int

// Migration policies.
const (
	// PickRandom chooses uniformly among the top R — Algorithm 1 as
	// published (it spreads migrating workloads instead of dogpiling the
	// single cheapest region).
	PickRandom MigrationPick = iota + 1
	// PickCheapest always chooses the cheapest qualifying region; the
	// ablation bench measures what the randomisation buys.
	PickCheapest
)

// Errors returned by the package.
var (
	ErrNoMetrics = errors.New("core: no metrics collected for instance type")
	ErrNoRegions = errors.New("core: no candidate regions")
)

// Config parameterises a SpotVerse deployment.
type Config struct {
	// InstanceType is the instance type being managed.
	InstanceType catalog.InstanceType
	// Threshold is Algorithm 1's combined-score threshold T.
	Threshold int
	// MaxRegions is Algorithm 1's R (the paper uses 4).
	MaxRegions int
	// Selection picks the threshold semantics (default SelectAtLeast).
	Selection SelectionMode
	// Scoring picks the metric set (default ScoreCombined; see
	// ScoringMode for the Azure/GCP-style degradations).
	Scoring ScoringMode
	// DisableOnDemandFallback turns off the cheapest-on-demand escape
	// hatch used when no region clears the threshold (Section 3.3); the
	// ablation bench flips it.
	DisableOnDemandFallback bool
	// FixedStartRegion, when set, overrides the initial-distribution
	// strategy and starts every workload there (the paper's Fig. 7 setup
	// for fair comparison against the single-region baseline).
	FixedStartRegion catalog.Region
	// Migration picks the interruption-handler policy (default
	// PickRandom, Algorithm 1).
	Migration MigrationPick
	// Seed feeds the random migration pick.
	Seed int64

	// BreakerFailures is the consecutive-failure count that trips a
	// per-(service, region) circuit breaker in the Controller (default
	// DefaultBreakerFailures).
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// trial retry is allowed through (default DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// RecoveryAfter is how long a pending migration may sit unresolved
	// before the 15-minute sweep retries it; it is also the base of the
	// retry backoff (default DefaultRecoveryAfter).
	RecoveryAfter time.Duration
	// DisableRecovery turns off the notice-loss recovery sweep — the
	// ablation that shows what the sweep buys under dropped EventBridge
	// deliveries.
	DisableRecovery bool
	// DisableBreakers turns off the Controller's circuit breakers.
	DisableBreakers bool
	// StaleAfter, when positive, discounts a region's combined score by
	// one point per StaleAfter of advisor-snapshot age beyond the first
	// StaleAfter — the degraded-mode Optimizer trusting old data less.
	StaleAfter time.Duration
	// StaleCutoff, when positive, excludes regions whose advisor snapshot
	// is older than the cutoff entirely; when every region ages out the
	// Optimizer falls back to cheapest on-demand.
	StaleCutoff time.Duration
	// Journal enables the Controller's DynamoDB write-ahead journal:
	// pending-migration transitions are persisted before in-memory
	// mutations, relaunches commit through a conditional write, and
	// CrashRestart rebuilds controller state by replay. Off by default —
	// the journal's ledger writes change run costs, so existing
	// experiments stay byte-identical unless a deployment opts in.
	Journal bool
	// Lease enables the Controller's lease-fenced commit path (requires
	// Journal): the Controller holds a lease item in the journal table
	// with a monotonically increasing fencing token, acquired and
	// renewed through conditional writes, and every relaunch commit
	// first proves tokenship with a conditional renew — so a deposed
	// incarnation (a split-brain rival, or a primary that lost its lease
	// during a partition) has its relaunches rejected instead of
	// duplicated. Off by default: the lease's reads and writes change
	// run costs, so existing experiments stay byte-identical.
	Lease bool
	// DisableFencing is a test hook: the lease is still acquired and
	// renewed, but the commit path skips the fencing check and restores
	// the proceed-on-unreachable-journal behaviour — the exact hole the
	// fencing closes. The fault-space fuzzer uses it as the deliberately
	// broken build its split-brain invariant must catch.
	DisableFencing bool
	// BreakerObserver, when set, is called on every circuit-breaker
	// state transition with "<controllerID>/<breakerKey>" (the ID is
	// DefaultControllerID, or a rival's NewRival ID), the state names
	// before and after, and the cumulative trip count — the feed for
	// the fuzzer's breaker-monotonicity invariant. On a crash-restart
	// it is called once with key "<controllerID>/" and states
	// "restart"/"restart" so observers can segment that incarnation's
	// per-key sequences across journal-replay state resets.
	BreakerObserver func(key, from, to string, trips int)
}

func (c Config) normalized() Config {
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	if c.MaxRegions <= 0 {
		c.MaxRegions = DefaultMaxRegions
	}
	if c.Selection == 0 {
		c.Selection = SelectAtLeast
	}
	if c.Migration == 0 {
		c.Migration = PickRandom
	}
	if c.Scoring == 0 {
		c.Scoring = ScoreCombined
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = DefaultBreakerFailures
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.RecoveryAfter <= 0 {
		c.RecoveryAfter = DefaultRecoveryAfter
	}
	return c
}

// Deps are the cloud services SpotVerse runs on.
type Deps struct {
	Engine     *simclock.Engine
	Market     *market.Model
	Provider   *cloud.Provider
	Dynamo     *dynamo.Store
	Lambda     *lambda.Runtime
	Bus        *eventbridge.Bus
	CloudWatch *cloudwatch.Service
	StepFn     *stepfn.Machine
}

func (d Deps) validate() error {
	switch {
	case d.Engine == nil, d.Market == nil, d.Provider == nil, d.Dynamo == nil,
		d.Lambda == nil, d.Bus == nil, d.CloudWatch == nil, d.StepFn == nil:
		return errors.New("core: all dependencies are required")
	}
	return nil
}

// SpotVerse bundles Monitor, Optimizer, and Controller. It implements
// strategy.Strategy.
type SpotVerse struct {
	cfg  Config
	deps Deps
	rng  *simclock.RNG

	monitor    *Monitor
	optimizer  *Optimizer
	controller *Controller
}

var _ strategy.Strategy = (*SpotVerse)(nil)

// New deploys SpotVerse: it creates the metrics table, registers the
// Lambda functions, schedules the Monitor's collectors and the
// Controller's 15-minute open-request sweep, and subscribes the
// interruption handler to EventBridge.
func New(cfg Config, deps Deps) (*SpotVerse, error) {
	if err := deps.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	if cfg.Lease && !cfg.Journal {
		return nil, errors.New("core: Config.Lease requires Config.Journal (the lease lives in the journal table)")
	}
	if _, err := deps.Market.Catalog().Spec(cfg.InstanceType); err != nil {
		return nil, err
	}
	sv := &SpotVerse{
		cfg:  cfg,
		deps: deps,
		rng:  simclock.Stream(cfg.Seed, "spotverse/"+string(cfg.InstanceType)),
	}
	mon, err := newMonitor(cfg, deps)
	if err != nil {
		return nil, err
	}
	sv.monitor = mon
	sv.optimizer = newOptimizer(cfg, deps, mon, sv.rng)
	ctl, err := newController(cfg, deps, sv.optimizer, DefaultControllerID)
	if err != nil {
		return nil, err
	}
	sv.controller = ctl
	return sv, nil
}

// NewRival deploys a second, split-brain Controller incarnation against
// the same dependencies: a network-partitioned ex-primary that still
// believes it is in charge, or an over-eager failover replacement. The
// rival shares the primary's Optimizer, journal table, and lease item
// but namespaces its AWS-side resources (handler Lambda, EventBridge
// rule, sweep schedule) under id, subscribes to the same interruption
// events, and races the primary for every relaunch commit — the fencing
// lease (Config.Lease) is what keeps that race exactly-once. The rival
// inherits the primary's relaunch resolver and replays the journal's
// open entries so it starts with the same view of pending work. Retire
// it with its Stop method.
func (sv *SpotVerse) NewRival(id string) (*Controller, error) {
	if id == "" || id == DefaultControllerID {
		return nil, errors.New("core: rival needs a distinct non-empty controller ID")
	}
	rival, err := newController(sv.cfg, sv.deps, sv.optimizer, id)
	if err != nil {
		return nil, err
	}
	rival.resolver = sv.controller.resolver
	if rival.jrnl != nil {
		pend, brks := rival.jrnl.replay()
		for wid, p := range pend {
			if rival.resolver != nil {
				p.relaunch = rival.resolver(wid)
			}
			rival.pending[wid] = p
		}
		rival.breakers = brks
	}
	return rival, nil
}

// Name implements strategy.Strategy.
func (sv *SpotVerse) Name() string { return "spotverse" }

// Monitor exposes the monitor component.
func (sv *SpotVerse) Monitor() *Monitor { return sv.monitor }

// Optimizer exposes the optimizer component.
func (sv *SpotVerse) Optimizer() *Optimizer { return sv.optimizer }

// Controller exposes the controller component.
func (sv *SpotVerse) Controller() *Controller { return sv.controller }

// PlaceInitial implements Algorithm 1's initialization phase.
func (sv *SpotVerse) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	out := make(map[string]strategy.Placement, len(ids))
	if sv.cfg.FixedStartRegion != "" {
		for _, id := range ids {
			out[id] = strategy.Placement{Region: sv.cfg.FixedStartRegion, Lifecycle: cloud.LifecycleSpot}
		}
		return out, nil
	}
	top, err := sv.optimizer.TopRegions(nil)
	if err != nil {
		return nil, err
	}
	if len(top) == 0 {
		od, err := sv.optimizer.CheapestOnDemand()
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			out[id] = strategy.Placement{Region: od, Lifecycle: cloud.LifecycleOnDemand}
		}
		return out, nil
	}
	for i, id := range ids {
		out[id] = strategy.Placement{Region: top[i%len(top)], Lifecycle: cloud.LifecycleSpot}
	}
	return out, nil
}

// OnInterrupted implements Algorithm 1's interruption phase, routed
// through the Controller's EventBridge → Step Functions → Lambda path as
// in the paper's AWS implementation.
func (sv *SpotVerse) OnInterrupted(id string, current catalog.Region, relaunch strategy.RelaunchFunc) error {
	return sv.controller.HandleInterruption(id, current, relaunch)
}

// CrashRestart models the whole control-plane process dying and
// cold-starting at the current sim instant: the Controller loses its
// in-memory registries (and recovers them from the journal when
// Config.Journal is on) and the Monitor loses its snapshot cache. The
// AWS-side actors — Lambda registrations, EventBridge rules, CloudWatch
// schedules, DynamoDB and S3 contents — survive, as they do in
// production.
func (sv *SpotVerse) CrashRestart() {
	sv.controller.CrashRestart()
	sv.monitor.crash()
}

// SetRelaunchResolver installs the factory the Controller uses to
// rebuild relaunch closures for journal-replayed migrations after a
// crash-restart (closures cannot be persisted).
func (sv *SpotVerse) SetRelaunchResolver(fn func(id string) strategy.RelaunchFunc) {
	sv.controller.SetRelaunchResolver(fn)
}
