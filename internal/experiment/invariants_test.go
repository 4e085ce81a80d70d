package experiment

import (
	"testing"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/core"
	"spotverse/internal/workload"
)

// TestRunInvariantsAcrossSeeds sweeps seeds and strategies and checks the
// structural invariants every run must satisfy, regardless of luck:
// conservation of workloads, non-negative costs, reconciling counters,
// and a valid timeline.
func TestRunInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		for _, kind := range []workload.Kind{workload.KindStandard, workload.KindCheckpoint} {
			builds := []builder{
				singleRegion(catalog.M5XLarge, "ca-central-1"),
				skyPilot(catalog.M5XLarge),
				spotVerse(core.Config{InstanceType: catalog.M5XLarge, Threshold: 5, Seed: seed}),
			}
			env := NewEnv(seed)
			strat, err := builds[seed%3](env)
			if err != nil {
				t.Fatal(err)
			}
			// Instance records are reused once OnTerminate returns, so keep
			// copies.
			var settled []cloud.Instance
			env.Provider.OnTerminate(func(inst *cloud.Instance, _ bool) { settled = append(settled, *inst) })
			ws := genWorkloads(t, seed, kind, 8)
			res, err := Run(env, RunConfig{Workloads: ws, Strategy: strat, InstanceType: catalog.M5XLarge, Trace: true})
			if err != nil {
				t.Fatalf("seed %d %s %s: %v", seed, kind, strat.Name(), err)
			}
			checkInvariants(t, seed, kind, res, ws, env, settled)
		}
	}
}

func checkInvariants(t *testing.T, seed int64, kind workload.Kind, res *Result, ws []*workload.State, env *Env, settled []cloud.Instance) {
	t.Helper()
	label := func(msg string, args ...any) {
		t.Errorf("seed %d %s %s: "+msg, append([]any{seed, kind, res.StrategyName}, args...)...)
	}
	if res.Completed != len(ws) {
		label("completed %d != %d", res.Completed, len(ws))
	}
	for _, w := range ws {
		if !w.Completed {
			label("workload %s not completed", w.Spec.ID)
		}
		if w.Spec.Kind == workload.KindCheckpoint && w.ShardsDone != w.Spec.Shards {
			label("workload %s shards %d/%d", w.Spec.ID, w.ShardsDone, w.Spec.Shards)
		}
	}
	if len(res.CompletionStamps) != res.Completed {
		label("stamps %d != completed %d", len(res.CompletionStamps), res.Completed)
	}
	if len(res.InterruptionStamps) != res.Interruptions {
		label("interruption stamps %d != count %d", len(res.InterruptionStamps), res.Interruptions)
	}
	regionSum := 0
	for _, n := range res.InterruptionsByRegion {
		regionSum += n
	}
	if regionSum != res.Interruptions {
		label("regional interruption sum %d != %d", regionSum, res.Interruptions)
	}
	launchSum := 0
	for _, n := range res.LaunchesByRegion {
		launchSum += n
	}
	if launchSum != res.Completed+res.Interruptions {
		label("launches %d != completed+interruptions %d", launchSum, res.Completed+res.Interruptions)
	}
	if res.InstanceCostUSD <= 0 || res.TotalCostUSD < res.InstanceCostUSD {
		label("costs implausible: instance %v total %v", res.InstanceCostUSD, res.TotalCostUSD)
	}
	if res.MakespanHours < res.MeanCompletionHours {
		label("makespan %v < mean completion %v", res.MakespanHours, res.MeanCompletionHours)
	}
	if problems := res.Timeline.Validate(); len(problems) > 0 {
		label("timeline: %v", problems)
	}
	// No instance may be left running after the run.
	if n := len(env.Provider.RunningInstances()); n != 0 {
		label("%d instances leaked", n)
	}
	// Every terminated instance has consistent billing, and together they
	// account for the whole instance spend.
	var billed float64
	for _, inst := range settled {
		billed += inst.CostUSD
		if inst.CostUSD < 0 {
			label("instance %s negative cost", inst.ID)
		}
		if inst.TerminatedAt.Before(inst.LaunchedAt) {
			label("instance %s terminated before launch", inst.ID)
		}
	}
	if d := billed - res.InstanceCostUSD; d < -1e-9 || d > 1e-9 {
		label("settled instances billed %v, result instance cost %v", billed, res.InstanceCostUSD)
	}
}
