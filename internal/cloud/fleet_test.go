package cloud

import (
	"fmt"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
)

// workloadRand returns a SetWorkloadRand resolver over n private
// streams, one per tag "w-<i>", drawn from the given family.
func workloadRand(family uint64, n int) (resolve func(tag string) *simclock.SplitMix64, tags []string) {
	rngs := make([]simclock.SplitMix64, n)
	byTag := make(map[string]*simclock.SplitMix64, n)
	for i := range rngs {
		rngs[i] = simclock.SplitMixAt(family, i)
		tag := fmt.Sprintf("w-%d", i)
		tags = append(tags, tag)
		byTag[tag] = &rngs[i]
	}
	return func(tag string) *simclock.SplitMix64 { return byTag[tag] }, tags
}

// TestFleetModeReleasesSettledRecords verifies the retention bound: the
// sweep compacts settled requests out of the open index, and terminated
// instances are released once subscribers have seen their final cost.
func TestFleetModeReleasesSettledRecords(t *testing.T) {
	eng, p := newProvider(3)
	var billed float64
	p.OnTerminate(func(inst *Instance, _ bool) { billed += inst.CostUSD })
	for i := 0; i < 20; i++ {
		if _, err := p.RequestSpot(catalog.M5XLarge, "eu-north-1", "w"); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 8; tick++ {
		if err := eng.RunFor(15 * time.Minute); err != nil {
			t.Fatal(err)
		}
		p.EvaluateOpenRequests()
	}
	if err := eng.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	open := p.EvaluateOpenRequests()
	if len(p.open) != open {
		t.Fatalf("open index holds %d requests after a sweep, want the %d open ones", len(p.open), open)
	}
	running := p.RunningInstances()
	if len(running) == 0 {
		t.Fatal("scenario fulfilled nothing; not exercising release")
	}
	for _, inst := range running {
		if err := p.Terminate(inst.ID); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(p.instances); n != 0 {
		t.Fatalf("%d terminated instances retained, want 0", n)
	}
	if billed <= 0 {
		t.Fatalf("OnTerminate saw total cost %v after release, want > 0", billed)
	}
}

// TestWorkloadRandKeepsDefaultSweep is the regression test for a
// resolver stranding spot requests: SetWorkloadRand only moves where
// draws come from, so spot requests whose first launch roll fails during
// an outage stay open and a later sweep fulfils them.
func TestWorkloadRandKeepsDefaultSweep(t *testing.T) {
	eng, p := newProvider(5)
	region := catalog.Region("eu-north-1")
	if err := p.mkt.InjectOutage(region, eng.Now(), eng.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	resolve, tags := workloadRand(simclock.SplitMixFamily(5, "fleet-test"), 10)
	p.SetWorkloadRand(resolve)
	launched := 0
	p.OnLaunch(func(*Instance) { launched++ })
	for _, tag := range tags {
		if _, err := p.RequestSpot(catalog.M5XLarge, region, tag); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if launched != 0 {
		t.Fatalf("%d requests fulfilled during the outage, want 0", launched)
	}
	if n := len(p.OpenRequests()); n != len(tags) {
		t.Fatalf("%d open requests, want %d", n, len(tags))
	}
	for tick := 0; tick < 24 && launched < len(tags); tick++ {
		if err := eng.RunFor(15 * time.Minute); err != nil {
			t.Fatal(err)
		}
		p.EvaluateOpenRequests()
	}
	if err := eng.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if launched != len(tags) {
		t.Fatalf("sweeps fulfilled %d/%d requests after the outage", launched, len(tags))
	}
}
