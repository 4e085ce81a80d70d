package main

import (
	"bytes"
	"fmt"
	"testing"

	"spotverse/internal/catalog"
	"spotverse/internal/core"
	"spotverse/internal/experiment"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// runSpotVerseArm runs the paper's own arm (Algorithm 1 with the Lambda
// and EventBridge control plane) over a small standard fleet and renders
// everything the run reports.
func runSpotVerseArm(t *testing.T, tr *tracer) string {
	t.Helper()
	const seed = 42
	env := experiment.NewEnv(seed)
	sv, err := core.New(core.Config{
		InstanceType:     catalog.M5XLarge,
		Threshold:        5,
		FixedStartRegion: experiment.BaselineRegionM5XLarge,
		Seed:             seed,
	}, core.Deps{
		Engine: env.Engine, Market: env.Market, Provider: env.Provider, Dynamo: env.Dynamo,
		Lambda: env.Lambda, Bus: env.Bus, CloudWatch: env.CloudWatch, StepFn: env.StepFn,
	})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workload.Generate(simclock.Stream(seed, "wl-standard"),
		workload.GenOptions{Kind: workload.KindStandard, Count: 16})
	if err != nil {
		t.Fatal(err)
	}
	var s strategy.Strategy = sv
	s = tr.wrapStrategy(s)
	res, err := experiment.Run(env, experiment.RunConfig{Workloads: ws, Strategy: s, InstanceType: catalog.M5XLarge, DisableSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiment.SeriesCSV(&buf, res.StrategyName, res); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "completed=%d interruptions=%d byRegion=%v launches=%v od=%d cost=%.9f/%.9f makespan=%.9f dup=%d\n",
		res.Completed, res.Interruptions, res.InterruptionsByRegion, res.LaunchesByRegion, res.OnDemandLaunches,
		res.InstanceCostUSD, res.ServiceCostUSD, res.MakespanHours, res.DuplicateRelaunches)
	for _, li := range res.Breakdown {
		fmt.Fprintf(&buf, "%v\n", li)
	}
	return buf.String()
}

func TestStrategyDecoratorKeepsOutput(t *testing.T) {
	bare := runSpotVerseArm(t, newTracer(false))
	tr := newTracer(true)
	wrapped := runSpotVerseArm(t, tr)
	if bare != wrapped {
		t.Errorf("wrapping the SpotVerse arm changed its result:\n--- bare\n%s\n--- wrapped\n%s", bare, wrapped)
	}
	if tr.strategy.calls.Load() == 0 {
		t.Error("the decorator saw no strategy calls")
	}
}

// observingStrategy records the optional calls the run engines make.
type observingStrategy struct {
	completed []string
	resolver  func(id string) strategy.RelaunchFunc
}

func (s *observingStrategy) Name() string { return "observing" }

func (s *observingStrategy) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	return map[string]strategy.Placement{}, nil
}

func (s *observingStrategy) OnInterrupted(id string, _ catalog.Region, relaunch strategy.RelaunchFunc) error {
	relaunch(strategy.Placement{Region: "us-east-1"})
	return nil
}

func (s *observingStrategy) OnCompleted(id string) { s.completed = append(s.completed, id) }

func (s *observingStrategy) SetRelaunchResolver(fn func(id string) strategy.RelaunchFunc) {
	s.resolver = fn
}

func TestStrategyDecoratorForwards(t *testing.T) {
	inner := &observingStrategy{}
	wrapped := newTracer(true).wrapStrategy(inner)
	obs, ok := wrapped.(experiment.CompletionObserver)
	if !ok {
		t.Fatal("the wrapper hides CompletionObserver")
	}
	obs.OnCompleted("wl-1")
	target, ok := wrapped.(experiment.RelaunchResolverTarget)
	if !ok {
		t.Fatal("the wrapper hides RelaunchResolverTarget")
	}
	target.SetRelaunchResolver(func(string) strategy.RelaunchFunc { return nil })
	relaunched := false
	if err := wrapped.OnInterrupted("wl-1", "us-east-1", func(strategy.Placement) { relaunched = true }); err != nil {
		t.Fatal(err)
	}
	if len(inner.completed) != 1 || inner.resolver == nil || !relaunched {
		t.Errorf("not forwarded: completed %v, resolver set %v, relaunched %v", inner.completed, inner.resolver != nil, relaunched)
	}
}

// unitOutput runs one unit of a workload in-process and returns its
// output bytes.
func unitOutput(t *testing.T, name string, seed int64, quick bool, tr *tracer) []byte {
	t.Helper()
	u, err := newUnit(name, seed, quick, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.close()
	if err := u.prepare(tr); err != nil {
		t.Fatal(err)
	}
	rep := &childReport{Counts: map[string]float64{}}
	out, err := u.run(tr, -1, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("%s: checks failed: %v", name, rep.Failures)
	}
	return out
}

func TestDecoratorsKeepFleetAndReplayBytes(t *testing.T) {
	for _, name := range []string{"fleet-100k", "serve-replay"} {
		bare := unitOutput(t, name, 42, true, newTracer(false))
		tr := newTracer(true)
		wrapped := unitOutput(t, name, 42, true, tr)
		if !bytes.Equal(bare, wrapped) {
			t.Errorf("%s: traced output differs:\n--- bare\n%s\n--- traced\n%s", name, bare, wrapped)
		}
		if tr.strategy.calls.Load() == 0 && len(tr.backend.snapshot()) == 0 {
			t.Errorf("%s: no decorator saw a call", name)
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: no spans recorded", name)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "unit", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "a", Start: 30, End: 60},  // overlaps the first child
		{ID: 3, Parent: 0, Name: "b", Start: 80, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Name: "c", Start: 20, End: 30},
	}
	agg := aggregate(spans)
	if got := agg["unit"]; got.Count != 1 || got.TotalN != 100 || got.SelfN != 100-50-20 {
		t.Errorf("unit = %+v, want total 100 self 30", got)
	}
	if got := agg["a"]; got.Count != 2 || got.TotalN != 70 || got.SelfN != 60 {
		t.Errorf("a = %+v, want total 70 self 60", got)
	}
}
