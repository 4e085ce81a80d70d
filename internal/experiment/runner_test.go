package experiment

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/core"
	"spotverse/internal/cost"
	"spotverse/internal/simclock"
	"spotverse/internal/workload"
)

func genWorkloads(t *testing.T, seed int64, kind workload.Kind, n int) []*workload.State {
	t.Helper()
	ws, err := workload.Generate(simclock.Stream(seed, "exp-test"), workload.GenOptions{Kind: kind, Count: n})
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func spotVerseFor(t *testing.T, env *Env, cfg core.Config) *core.SpotVerse {
	t.Helper()
	sv, err := NewSpotVerse(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestRunSkipsHarnessSweepForSpotVerse checks that Run leaves the
// open-request sweep to SpotVerse's Controller: a bare SpotVerse run is
// the same with and without DisableSweep, so no caller needs to set it.
func TestRunSkipsHarnessSweepForSpotVerse(t *testing.T) {
	run := func(disableSweep bool) *Result {
		env := NewEnv(3)
		sv := spotVerseFor(t, env, fig7SpotVerse(3))
		res, err := Run(env, RunConfig{
			Workloads:    genWorkloads(t, 3, workload.KindStandard, 8),
			Strategy:     sv,
			InstanceType: catalog.M5XLarge,
			DisableSweep: disableSweep,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, off := run(false), run(true)
	if !reflect.DeepEqual(def, off) {
		t.Fatalf("harness sweep changed a SpotVerse run: service $%.6f vs $%.6f, total $%.4f vs $%.4f",
			def.ServiceCostUSD, off.ServiceCostUSD, def.TotalCostUSD, off.TotalCostUSD)
	}
}

func TestOnDemandRunNoInterruptions(t *testing.T) {
	env := NewEnv(1)
	strat, err := baselines.NewOnDemand(env.Catalog(), catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	ws := genWorkloads(t, 1, workload.KindStandard, 10)
	res, err := Run(env, RunConfig{Workloads: ws, Strategy: strat, InstanceType: catalog.M5XLarge})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 || res.Interruptions != 0 {
		t.Fatalf("completed=%d interruptions=%d", res.Completed, res.Interruptions)
	}
	// On-demand workloads finish in exactly their duration: makespan
	// within the 10-11h window.
	if res.MakespanHours < 10 || res.MakespanHours > 11.1 {
		t.Fatalf("makespan = %vh", res.MakespanHours)
	}
	if res.OnDemandLaunches != 10 {
		t.Fatalf("on-demand launches = %d", res.OnDemandLaunches)
	}
	// Cost sanity: 10 workloads x ~10.5h x od price.
	od, _ := env.Catalog().OnDemandPrice(catalog.M5XLarge, strat.Region())
	lo, hi := od*10*10, od*11*10
	if res.InstanceCostUSD < lo || res.InstanceCostUSD > hi {
		t.Fatalf("instance cost %v outside [%v, %v]", res.InstanceCostUSD, lo, hi)
	}
}

func TestSingleRegionRunSuffersInterruptions(t *testing.T) {
	env := NewEnv(2)
	strat, err := baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, "ca-central-1")
	if err != nil {
		t.Fatal(err)
	}
	ws := genWorkloads(t, 2, workload.KindStandard, 20)
	res, err := Run(env, RunConfig{Workloads: ws, Strategy: strat, InstanceType: catalog.M5XLarge})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Interruptions == 0 {
		t.Fatal("ca-central-1 run saw zero interruptions; hazard calibration broken")
	}
	// All interruptions must be in the single region.
	if len(res.InterruptionsByRegion) != 1 || res.InterruptionsByRegion["ca-central-1"] != res.Interruptions {
		t.Fatalf("regional distribution = %v", res.InterruptionsByRegion)
	}
	if res.MakespanHours <= 11 {
		t.Fatalf("makespan %vh implausibly short with %d interruptions", res.MakespanHours, res.Interruptions)
	}
	if len(res.InterruptionStamps) != res.Interruptions {
		t.Fatal("interruption stamp series inconsistent")
	}
}

func TestSpotVerseRunBeatsSingleRegion(t *testing.T) {
	const n = 20
	// Single-region baseline.
	envA := NewEnv(3)
	single, err := baselines.NewSingleRegion(envA.Catalog(), catalog.M5XLarge, "ca-central-1")
	if err != nil {
		t.Fatal(err)
	}
	resA, err := Run(envA, RunConfig{Workloads: genWorkloads(t, 3, workload.KindStandard, n), Strategy: single, InstanceType: catalog.M5XLarge})
	if err != nil {
		t.Fatal(err)
	}
	// SpotVerse starting in the same region (Fig. 7 setup).
	envB := NewEnv(3)
	sv := spotVerseFor(t, envB, core.Config{
		InstanceType:     catalog.M5XLarge,
		Threshold:        5,
		FixedStartRegion: "ca-central-1",
		Seed:             3,
	})
	resB, err := Run(envB, RunConfig{
		Workloads:    genWorkloads(t, 3, workload.KindStandard, n),
		Strategy:     sv,
		InstanceType: catalog.M5XLarge,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Completed != n {
		t.Fatalf("spotverse completed %d/%d", resB.Completed, n)
	}
	if resB.Interruptions >= resA.Interruptions {
		t.Fatalf("spotverse interruptions %d >= single-region %d", resB.Interruptions, resA.Interruptions)
	}
	if resB.MakespanHours >= resA.MakespanHours {
		t.Fatalf("spotverse makespan %v >= single-region %v", resB.MakespanHours, resA.MakespanHours)
	}
	// SpotVerse must have migrated out of ca-central-1.
	if len(resB.InterruptionsByRegion) < 1 || len(resB.LaunchesByRegion) < 2 {
		t.Fatalf("spotverse never migrated: launches=%v", resB.LaunchesByRegion)
	}
	// SpotVerse pays control-plane costs the baseline does not.
	if resB.ServiceCostUSD <= resA.ServiceCostUSD {
		t.Fatalf("spotverse services $%v <= baseline $%v", resB.ServiceCostUSD, resA.ServiceCostUSD)
	}
}

func TestCheckpointWorkloadsResume(t *testing.T) {
	env := NewEnv(4)
	strat, err := baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, "ca-central-1")
	if err != nil {
		t.Fatal(err)
	}
	ws := genWorkloads(t, 4, workload.KindCheckpoint, 15)
	res, err := Run(env, RunConfig{Workloads: ws, Strategy: strat, InstanceType: catalog.M5XLarge})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 15 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Interruptions == 0 {
		t.Skip("no interruptions for this seed; resume path unexercised")
	}
	// Checkpoint uploads must have hit S3 and DynamoDB.
	if env.Ledger.Of(cost.CategoryS3Storage) <= 0 {
		t.Fatal("no checkpoint S3 storage billed")
	}
	items, err := env.Dynamo.Scan(CheckpointTable, "ckpt#")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("no checkpoints recorded in DynamoDB")
	}
	// Resumable workloads finish much faster than restart-from-zero under
	// the same hazard: each attempt only replays one shard.
	bankTotal := 0
	for _, w := range ws {
		bankTotal += w.ShardsDone
		if !w.Completed {
			t.Fatalf("workload %s not completed", w.Spec.ID)
		}
	}
	if bankTotal != 15*20 {
		t.Fatalf("banked shards = %d, want all", bankTotal)
	}
}

func TestCheckpointBeatsStandardUnderSameHazard(t *testing.T) {
	const n = 15
	run := func(kind workload.Kind, seed int64) *Result {
		env := NewEnv(seed)
		strat, err := baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, "ca-central-1")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(env, RunConfig{Workloads: genWorkloads(t, seed, kind, n), Strategy: strat, InstanceType: catalog.M5XLarge})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	std := run(workload.KindStandard, 5)
	ck := run(workload.KindCheckpoint, 5)
	if ck.MakespanHours >= std.MakespanHours {
		t.Fatalf("checkpoint makespan %v >= standard %v", ck.MakespanHours, std.MakespanHours)
	}
	if ck.InstanceCostUSD >= std.InstanceCostUSD {
		t.Fatalf("checkpoint cost %v >= standard %v", ck.InstanceCostUSD, std.InstanceCostUSD)
	}
}

func TestRunValidation(t *testing.T) {
	env := NewEnv(6)
	if _, err := Run(env, RunConfig{}); !errors.Is(err, ErrNoWorkloads) {
		t.Fatalf("err = %v", err)
	}
	ws := genWorkloads(t, 6, workload.KindStandard, 1)
	if _, err := Run(env, RunConfig{Workloads: ws}); !errors.Is(err, ErrNoStrategy) {
		t.Fatalf("err = %v", err)
	}
}

func TestHorizonEnforced(t *testing.T) {
	env := NewEnv(7)
	strat, err := baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, "ca-central-1")
	if err != nil {
		t.Fatal(err)
	}
	ws := genWorkloads(t, 7, workload.KindStandard, 10)
	_, err = Run(env, RunConfig{
		Workloads:    ws,
		Strategy:     strat,
		InstanceType: catalog.M5XLarge,
		Horizon:      2 * time.Hour, // impossible: workloads need 10h
	})
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	// AllowIncomplete tolerates it.
	env2 := NewEnv(7)
	strat2, _ := baselines.NewSingleRegion(env2.Catalog(), catalog.M5XLarge, "ca-central-1")
	res, err := Run(env2, RunConfig{
		Workloads:       genWorkloads(t, 7, workload.KindStandard, 10),
		Strategy:        strat2,
		InstanceType:    catalog.M5XLarge,
		Horizon:         2 * time.Hour,
		AllowIncomplete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("completed = %d in 2h", res.Completed)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		env := NewEnv(8)
		strat, err := baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, "ca-central-1")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(env, RunConfig{Workloads: genWorkloads(t, 8, workload.KindStandard, 10), Strategy: strat, InstanceType: catalog.M5XLarge})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Interruptions != b.Interruptions || a.MakespanHours != b.MakespanHours || a.TotalCostUSD != b.TotalCostUSD {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestBreakdownIncludesInstances(t *testing.T) {
	env := NewEnv(9)
	strat, err := baselines.NewOnDemand(env.Catalog(), catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, RunConfig{Workloads: genWorkloads(t, 9, workload.KindStandard, 3), Strategy: strat, InstanceType: catalog.M5XLarge})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var breakdownTotal float64
	for _, item := range res.Breakdown {
		breakdownTotal += item.USD
		if item.Category == cost.CategoryInstances && item.USD > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no instances line item: %+v", res.Breakdown)
	}
	if diff := breakdownTotal - res.TotalCostUSD; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("breakdown sum %v != total %v", breakdownTotal, res.TotalCostUSD)
	}
}
