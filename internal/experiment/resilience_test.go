package experiment

import (
	"math"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/core"
)

// TestChaosOffPassThrough pins the tentpole's identity guarantee: an
// environment with an Off-schedule injector installed behaves exactly
// like one with no injector at all.
func TestChaosOffPassThrough(t *testing.T) {
	runOnce := func(install bool) *Result {
		env := NewEnv(42)
		if install {
			ApplyChaos(env, chaos.NewInjector(env.Engine, 42, chaos.Preset(chaos.Off, env.Engine.Now())))
		}
		sv, err := NewSpotVerse(env, core.Config{
			InstanceType:     catalog.M5XLarge,
			Threshold:        5,
			FixedStartRegion: BaselineRegionM5XLarge,
			Seed:             42,
		})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := genCheckpoint(42, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(env, RunConfig{Workloads: ws, Strategy: sv, InstanceType: catalog.M5XLarge})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, injected := runOnce(false), runOnce(true)
	if plain.Completed != injected.Completed ||
		plain.Interruptions != injected.Interruptions ||
		math.Abs(plain.TotalCostUSD-injected.TotalCostUSD) > 1e-9 ||
		plain.MakespanHours != injected.MakespanHours {
		t.Fatalf("Off injector perturbed the run:\nplain    %+v\ninjected %+v", plain, injected)
	}
}

// TestLostNoticeRecovered is the lost-interruption-notice scenario: an
// EventBridge delivery carrying a spot interruption warning is dropped,
// and the hardened Controller's sweep must still migrate the workload
// within roughly one sweep interval of it becoming eligible.
func TestLostNoticeRecovered(t *testing.T) {
	env := NewEnv(42)
	var droppedAt time.Time
	dropped := 0
	env.Bus.SetDrop(func(rule, source, detailType string) bool {
		if dropped == 0 && detailType == core.DetailTypeInterruption {
			dropped++
			droppedAt = env.Engine.Now()
			return true
		}
		return false
	})
	sv, err := NewSpotVerse(env, core.Config{
		InstanceType:     catalog.M5XLarge,
		Threshold:        5,
		FixedStartRegion: BaselineRegionM5XLarge,
		Seed:             42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := genCheckpoint(42, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, RunConfig{Workloads: ws, Strategy: sv, InstanceType: catalog.M5XLarge, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatal("no interruption delivery was dropped; scenario did not trigger")
	}
	if res.Completed != res.Workloads {
		t.Fatalf("completed %d/%d despite recovery sweep", res.Completed, res.Workloads)
	}
	recoveries, _, _ := sv.Controller().ResilienceStats()
	if recoveries < 1 {
		t.Fatalf("recoveries = %d, want >= 1", recoveries)
	}

	// Locate the interrupted workload whose notice was dropped and its
	// next relaunch.
	var victim string
	for _, ev := range res.Timeline.Events() {
		if ev.Kind == EventInterrupt && ev.At.Equal(droppedAt) {
			victim = ev.Workload
			break
		}
	}
	if victim == "" {
		t.Fatalf("no interrupt event at drop time %v", droppedAt)
	}
	var relaunchAt time.Time
	for _, ev := range res.Timeline.Events() {
		if ev.Kind == EventRelaunch && ev.Workload == victim && !ev.At.Before(droppedAt) {
			relaunchAt = ev.At
			break
		}
	}
	if relaunchAt.IsZero() {
		t.Fatalf("workload %s never relaunched after its notice was dropped", victim)
	}
	// Eligibility takes RecoveryAfter; the sweep fires every
	// SweepInterval; allow one extra interval for phase alignment plus
	// the handler chain.
	limit := 2*core.SweepInterval + core.DefaultRecoveryAfter + time.Minute
	if gap := relaunchAt.Sub(droppedAt); gap > limit {
		t.Fatalf("recovery took %v, want <= %v", gap, limit)
	}
}

// TestRecoveryAblationStrandsWorkloads pins the sweep's consequence
// under the same single-drop scenario: with recovery disabled the
// dropped notice permanently strands the workload.
func TestRecoveryAblationStrandsWorkloads(t *testing.T) {
	env := NewEnv(42)
	dropped := 0
	env.Bus.SetDrop(func(rule, source, detailType string) bool {
		if dropped == 0 && detailType == core.DetailTypeInterruption {
			dropped++
			return true
		}
		return false
	})
	sv, err := NewSpotVerse(env, core.Config{
		InstanceType:     catalog.M5XLarge,
		Threshold:        5,
		FixedStartRegion: BaselineRegionM5XLarge,
		Seed:             42,
		DisableHardening: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := genCheckpoint(42, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, RunConfig{Workloads: ws, Strategy: sv, InstanceType: catalog.M5XLarge, AllowIncomplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatal("scenario did not trigger")
	}
	if res.Completed != res.Workloads-1 {
		t.Fatalf("completed %d/%d, want exactly one stranded workload", res.Completed, res.Workloads)
	}
}

// TestSevereHardenedBeatsAblation is the headline acceptance criterion:
// under the severe schedule the hardened stack completes >= 95% of
// workloads while the no-retry ablation demonstrably loses some.
func TestSevereHardenedBeatsAblation(t *testing.T) {
	hardened, err := resilienceCell(StrategySpotVerse, 42, chaos.Severe, ResilienceWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	ablated, err := resilienceCell(StrategyNoRetry, 42, chaos.Severe, ResilienceWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	if hardened.CompletionRate < 0.95 {
		t.Fatalf("hardened severe completion = %.0f%%, want >= 95%%", hardened.CompletionRate*100)
	}
	if ablated.Completed >= hardened.Completed {
		t.Fatalf("ablation completed %d, hardened %d — ablation shows no loss", ablated.Completed, hardened.Completed)
	}
	if hardened.Retries == 0 || hardened.Recoveries == 0 {
		t.Fatalf("hardened counters flat: retries=%d recoveries=%d", hardened.Retries, hardened.Recoveries)
	}
	if ablated.Exhausted == 0 {
		t.Fatal("ablation shows no exhausted executions under severe chaos")
	}
}

// TestResilienceMatrixInflation checks the matrix fills per-strategy
// inflation ratios against the intensity-0 cell.
func TestResilienceMatrixInflation(t *testing.T) {
	rows, err := ResilienceMatrix(42, []string{StrategySpotVerse}, []chaos.Intensity{chaos.Off, chaos.Severe}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].CostInflation != 1 || rows[0].MakespanInflation != 1 {
		t.Fatalf("baseline inflation = %+v", rows[0])
	}
	if rows[1].CostInflation <= 0 || rows[1].FaultsInjected == 0 {
		t.Fatalf("severe row = %+v", rows[1])
	}
}
