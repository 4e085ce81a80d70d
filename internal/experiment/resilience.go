package experiment

import (
	"fmt"
	"io"
	"time"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/core"
	"spotverse/internal/report"
	"spotverse/internal/services/stepfn"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

// ---------------------------------------------------------------------
// Resilience: completion and cost under control-plane chaos.
// ---------------------------------------------------------------------

// ResilienceWorkloads is the checkpoint-workload count per cell of the
// resilience sweep (smaller than EvalInstances: the matrix is 4x4 runs).
const ResilienceWorkloads = 20

// Resilience strategy labels.
const (
	StrategySpotVerse = "spotverse"
	// StrategyNoRetry is the hardening ablation (core.Config
	// DisableHardening, DiscountStale off): single-attempt Step
	// Functions, no recovery sweep, no breakers, no staleness handling.
	StrategyNoRetry  = "spotverse-noretry"
	StrategySkyPilot = "skypilot"
	StrategyOnDemand = "on-demand"
)

// ResilienceStrategies is the default strategy set, in render order.
var ResilienceStrategies = []string{StrategySpotVerse, StrategyNoRetry, StrategySkyPilot, StrategyOnDemand}

// ResilienceIntensities is the default intensity sweep.
var ResilienceIntensities = []chaos.Intensity{chaos.Off, chaos.Low, chaos.Medium, chaos.Severe}

// ResilienceRow is one (strategy, intensity) cell of the sweep.
type ResilienceRow struct {
	Strategy  string
	Intensity chaos.Intensity
	Workloads int
	Completed int
	// CompletionRate is Completed/Workloads.
	CompletionRate float64
	TotalCostUSD   float64
	// CostInflation is TotalCostUSD over the same strategy's intensity-0
	// cost (1.0 = no inflation; 0 when no baseline cell ran).
	CostInflation float64
	MakespanHours float64
	// MakespanInflation mirrors CostInflation for makespan.
	MakespanInflation float64
	Interruptions     int
	// Retries counts Step Functions attempts beyond each execution's
	// first; Exhausted counts executions that ran out of attempts.
	Retries   int64
	Exhausted int64
	// BreakerTrips and Recoveries come from the Controller's hardening
	// counters (zero for baselines, which bypass the control plane).
	BreakerTrips int
	Recoveries   int
	// FaultsInjected and DroppedEvents come from the injector and bus.
	FaultsInjected int
	DroppedEvents  int64
}

// chaosCell is one assembled chaos cell: a fresh environment with the
// injector's interceptors installed and, when the cell runs SpotVerse,
// the deployed manager with the schedule's controller kills and
// split-brain windows armed against it.
type chaosCell struct {
	env *Env
	inj *chaos.Injector
	// sv is the deployed manager; nil for a baseline cell.
	sv *core.SpotVerse
	// rivalsSpawned and rivalSpawnErrors count split-brain windows whose
	// rival controller spawned, and windows whose spawn failed.
	rivalsSpawned, rivalSpawnErrors int
}

// newChaosCell is the one way the chaos, crash, fuzz and serve paths
// build a cell at seed under sched (windowed events anchored at
// simclock.Epoch). It owns the order: fresh Env → injector → Step
// Functions machine (one attempt under cfg.DisableHardening, else five
// with exponential backoff from 30 s and 40% jitter) → ApplyChaos →
// SpotVerse, only when cfg is non-nil (a baseline cell builds its
// strategy on the returned Env) → controller kills → split-brain
// windows, kills first so same-instant ties keep that order.
func newChaosCell(seed int64, sched chaos.Schedule, cfg *core.Config) (*chaosCell, error) {
	env := NewEnv(seed)
	c := &chaosCell{env: env, inj: chaos.NewInjector(env.Engine, seed, sched)}
	machine := stepfn.Config{MaxAttempts: 5, BaseBackoff: 30 * time.Second, BackoffRate: 2, Jitter: 0.4, Seed: seed}
	if cfg != nil && cfg.DisableHardening {
		machine = stepfn.Config{MaxAttempts: 1, BaseBackoff: 30 * time.Second}
	}
	env.StepFn = stepfn.MustNew(env.Engine, env.Ledger, machine)
	ApplyChaos(env, c.inj)
	if cfg == nil {
		return c, nil
	}
	sv, err := NewSpotVerse(env, *cfg)
	if err != nil {
		return nil, err
	}
	c.sv = sv
	ScheduleControllerKills(env, c.inj, sv)
	c.scheduleSplitBrains()
	return c, nil
}

// ApplyChaos installs the injector's interceptors on every service in
// the environment. Call it after any service swaps and before
// constructing the strategy, so rules and schedules registered later
// are also covered (newChaosCell owns that order for the experiment
// cells). Data-loss events in the schedule — bucket losses — are
// scheduled on the engine here; controller kills need a manager
// reference and are scheduled separately (ScheduleControllerKills).
func ApplyChaos(env *Env, inj *chaos.Injector) {
	env.Dynamo.SetFault(inj.ServiceFault(chaos.ServiceDynamo))
	env.S3.SetFault(inj.ServiceFault(chaos.ServiceS3))
	env.S3.SetCorrupt(inj.CorruptGet)
	env.EFS.SetFault(inj.ServiceFault(chaos.ServiceEFS))
	env.Lambda.SetFault(inj.ServiceFault(chaos.ServiceLambda))
	env.Lambda.SetLatency(inj.Latency)
	env.Bus.SetFault(inj.ServiceFault(chaos.ServiceEventBridge))
	env.Bus.SetDrop(inj.Drop)
	env.CloudWatch.SetFault(inj.ServiceFault(chaos.ServiceCloudWatch))
	env.StepFn.SetFault(inj.ServiceFault(chaos.ServiceStepFn))
	if sched := inj.Schedule(); sched.Enabled() {
		for _, bl := range sched.BucketLosses {
			loss := bl
			if !loss.At.After(env.Engine.Now()) {
				continue
			}
			_, _ = env.Engine.ScheduleAt(loss.At, "chaos-bucket-loss:"+loss.Bucket, func() {
				// Wiping a bucket that was never created is a no-op.
				_ = env.S3.WipeBucket(loss.Bucket)
			})
		}
	}
}

// ScheduleControllerKills schedules the schedule's controller kills
// against one SpotVerse deployment: at each instant the control plane
// crash-restarts (losing its in-memory state; see core.CrashRestart).
func ScheduleControllerKills(env *Env, inj *chaos.Injector, sv *core.SpotVerse) {
	sched := inj.Schedule()
	if !sched.Enabled() {
		return
	}
	for _, k := range sched.ControllerKills {
		kill := k
		if !kill.At.After(env.Engine.Now()) {
			continue
		}
		_, _ = env.Engine.ScheduleAt(kill.At, "chaos-controller-kill", func() {
			sv.CrashRestart()
		})
	}
}

// scheduleSplitBrains schedules the schedule's split-brain windows
// against the cell's manager: at each window's From a rival controller
// incarnation spawns (core.SpotVerse.NewRival) and races the primary
// for every relaunch commit until the window's To retires it. Each
// spawn attempt's outcome lands in the cell's counters. Zero-length
// windows are skipped — like every chaos Window, [t, t) contains
// nothing.
func (c *chaosCell) scheduleSplitBrains() {
	sched := c.inj.Schedule()
	if !sched.Enabled() {
		return
	}
	eng := c.env.Engine
	for i, sb := range sched.SplitBrains {
		win := sb.Window
		if !win.To.After(win.From) || !win.From.After(eng.Now()) {
			continue
		}
		_, _ = eng.ScheduleAt(win.From, "chaos-split-brain", func() {
			rival, err := c.sv.NewRival(fmt.Sprintf("sb%d", i))
			if err != nil {
				c.rivalSpawnErrors++
				return
			}
			c.rivalsSpawned++
			_, _ = eng.ScheduleAt(win.To, "chaos-split-brain-stop", func() {
				rival.Stop()
			})
		})
	}
}

// resilienceSchedule is the sweep's fault plan: the intensity preset,
// plus — from Medium up — a three-day collector silence that ages the
// advisor snapshots into the Optimizer's degraded-mode path.
func resilienceSchedule(i chaos.Intensity, start time.Time) chaos.Schedule {
	sched := chaos.Preset(i, start)
	if i >= chaos.Medium {
		sched.OpOutages = append(sched.OpOutages, chaos.OpOutage{
			Service:  chaos.ServiceLambda,
			OpPrefix: "invoke:" + core.CollectorFunction,
			Window:   chaos.Window{From: start.Add(24 * time.Hour), To: start.Add(96 * time.Hour)},
		})
	}
	return sched
}

// resilienceCell runs one (strategy, intensity) cell.
func resilienceCell(name string, seed int64, intensity chaos.Intensity, n int) (*ResilienceRow, error) {
	var cfg *core.Config
	if name == StrategySpotVerse || name == StrategyNoRetry {
		cfg = &core.Config{
			InstanceType:     catalog.M5XLarge,
			Threshold:        5,
			FixedStartRegion: BaselineRegionM5XLarge,
			Seed:             seed,
			DisableHardening: name == StrategyNoRetry,
			DiscountStale:    name == StrategySpotVerse,
		}
	}
	cell, err := newChaosCell(seed, resilienceSchedule(intensity, simclock.Epoch), cfg)
	if err != nil {
		return nil, fmt.Errorf("resilience %s: %w", name, err)
	}
	env := cell.env
	var strat strategy.Strategy
	switch name {
	case StrategySpotVerse, StrategyNoRetry:
		strat = cell.sv
	case StrategySkyPilot:
		strat, err = baselines.NewSkyPilotLike(env.Engine, env.Market, catalog.M5XLarge)
	case StrategyOnDemand:
		strat, err = baselines.NewOnDemand(env.Catalog(), catalog.M5XLarge)
	default:
		return nil, fmt.Errorf("resilience: unknown strategy %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("resilience %s: %w", name, err)
	}

	ws, err := genCheckpoint(seed, n)
	if err != nil {
		return nil, err
	}
	res, err := Run(env, RunConfig{
		Workloads:       ws,
		Strategy:        strat,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
	})
	if err != nil {
		return nil, fmt.Errorf("resilience %s@%s: %w", name, intensity, err)
	}

	executions, transitions, exhausted := env.StepFn.Stats()
	row := &ResilienceRow{
		Strategy:       name,
		Intensity:      intensity,
		Workloads:      res.Workloads,
		Completed:      res.Completed,
		CompletionRate: float64(res.Completed) / float64(res.Workloads),
		TotalCostUSD:   res.TotalCostUSD,
		MakespanHours:  res.MakespanHours,
		Interruptions:  res.Interruptions,
		Retries:        transitions - executions,
		Exhausted:      exhausted,
		FaultsInjected: cell.inj.Stats().Total,
		DroppedEvents:  env.Bus.Dropped(),
	}
	if cell.sv != nil {
		row.Recoveries, row.BreakerTrips, _ = cell.sv.Controller().ResilienceStats()
	}
	return row, nil
}

// ResilienceMatrix runs the sweep over the given strategies and
// intensities (both in order), filling per-strategy inflation ratios
// against each strategy's intensity-0 cell. Every (strategy, intensity)
// cell builds its own environment, so all cells fan out across the worker
// pool at once; the inflation ratios are filled in a sequential second
// pass over the ordered rows, keeping the table independent of worker
// count.
func ResilienceMatrix(seed int64, strategies []string, intensities []chaos.Intensity, n int) ([]ResilienceRow, error) {
	cells, err := Gather(len(strategies)*len(intensities), func(idx int) (*ResilienceRow, error) {
		name := strategies[idx/len(intensities)]
		intensity := intensities[idx%len(intensities)]
		return resilienceCell(name, seed, intensity, n)
	})
	if err != nil {
		return nil, err
	}
	out := make([]ResilienceRow, 0, len(cells))
	for si := range strategies {
		var base *ResilienceRow
		for ii, intensity := range intensities {
			row := cells[si*len(intensities)+ii]
			if intensity == chaos.Off {
				base = row
			}
			if base != nil {
				if base.TotalCostUSD > 0 {
					row.CostInflation = row.TotalCostUSD / base.TotalCostUSD
				}
				if base.MakespanHours > 0 {
					row.MakespanInflation = row.MakespanHours / base.MakespanHours
				}
			}
			out = append(out, *row)
		}
	}
	return out, nil
}

// Resilience runs the full default sweep: every strategy at every
// intensity over ResilienceWorkloads checkpoint workloads.
func Resilience(seed int64) ([]ResilienceRow, error) {
	return ResilienceMatrix(seed, ResilienceStrategies, ResilienceIntensities, ResilienceWorkloads)
}

// RenderResilience prints the sweep as the chaos experiment's table.
func RenderResilience(w io.Writer, rows []ResilienceRow) error {
	t := report.NewTable("Resilience under control-plane chaos (checkpoint workloads, 14-day horizon)",
		"strategy", "intensity", "completed", "rate", "cost", "cost-infl", "makespan-h", "mk-infl",
		"interrupts", "retries", "exhausted", "trips", "recoveries", "faults", "dropped-ev")
	for _, r := range rows {
		t.MustAddRow(
			r.Strategy,
			r.Intensity.String(),
			fmt.Sprintf("%d/%d", r.Completed, r.Workloads),
			report.Pct(r.CompletionRate),
			report.USD(r.TotalCostUSD),
			report.F(r.CostInflation, 2)+"x",
			report.F(r.MakespanHours, 1),
			report.F(r.MakespanInflation, 2)+"x",
			fmt.Sprintf("%d", r.Interruptions),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Exhausted),
			fmt.Sprintf("%d", r.BreakerTrips),
			fmt.Sprintf("%d", r.Recoveries),
			fmt.Sprintf("%d", r.FaultsInjected),
			fmt.Sprintf("%d", r.DroppedEvents),
		)
	}
	return t.Render(w)
}
