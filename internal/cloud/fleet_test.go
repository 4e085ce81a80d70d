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

// terminated is one instance's final cost as an OnTerminate subscriber
// sees it.
type terminated struct {
	id   InstanceID
	cost float64
}

// fleetScenario files a batch of spot requests under per-workload
// streams, lets interruptions and sweeps play out, and returns the
// observable trace the fleet and default modes must agree on.
func fleetScenario(t *testing.T, enableFleet bool) (launches []InstanceID, costs []terminated, swept []int) {
	t.Helper()
	eng, p := newProvider(9)
	if enableFleet {
		p.EnableFleetMode(eng.Now().Add(30 * 24 * time.Hour))
	}
	resolve, tags := workloadRand(simclock.SplitMixFamily(9, "fleet-test"), 30)
	p.SetWorkloadRand(resolve)
	p.OnLaunch(func(inst *Instance) { launches = append(launches, inst.ID) })
	p.OnTerminate(func(inst *Instance, _ bool) { costs = append(costs, terminated{inst.ID, inst.CostUSD}) })
	for i, tag := range tags {
		region := catalog.Region("eu-north-1")
		if i%3 == 0 {
			region = "us-east-1"
		}
		if _, err := p.RequestSpot(catalog.M5XLarge, region, tag); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 16; tick++ {
		if err := eng.RunFor(15 * time.Minute); err != nil {
			t.Fatal(err)
		}
		swept = append(swept, p.EvaluateOpenRequests())
	}
	if err := eng.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, inst := range p.RunningInstances() {
		if err := p.Terminate(inst.ID); err != nil {
			t.Fatal(err)
		}
	}
	return launches, costs, swept
}

// TestFleetModeBitIdentical pins the core fleet-mode contract: with the
// same per-workload streams, the open-request index, batched fulfills,
// skipped notices, and released records must not change a single
// observable — launch order, sweep counts, or the per-instance costs
// seen through OnTerminate.
func TestFleetModeBitIdentical(t *testing.T) {
	slowLaunches, slowCosts, slowSwept := fleetScenario(t, false)
	fleetLaunches, fleetCosts, fleetSwept := fleetScenario(t, true)

	if len(slowLaunches) == 0 {
		t.Fatal("scenario launched nothing; not exercising the fleet path")
	}
	if len(fleetLaunches) != len(slowLaunches) {
		t.Fatalf("fleet launched %d instances, default %d", len(fleetLaunches), len(slowLaunches))
	}
	for i := range slowLaunches {
		if fleetLaunches[i] != slowLaunches[i] {
			t.Fatalf("launch[%d] = %s (fleet) vs %s (default)", i, fleetLaunches[i], slowLaunches[i])
		}
	}
	if len(fleetCosts) != len(slowCosts) {
		t.Fatalf("fleet terminated %d instances, default %d", len(fleetCosts), len(slowCosts))
	}
	for i := range slowCosts {
		if fleetCosts[i] != slowCosts[i] {
			t.Fatalf("termination[%d] = %+v (fleet) vs %+v (default); must be bit-identical", i, fleetCosts[i], slowCosts[i])
		}
	}
	if len(fleetSwept) != len(slowSwept) {
		t.Fatalf("fleet ran %d sweeps, default %d", len(fleetSwept), len(slowSwept))
	}
	for i := range slowSwept {
		if fleetSwept[i] != slowSwept[i] {
			t.Fatalf("sweep[%d] evaluated %d (fleet) vs %d (default)", i, fleetSwept[i], slowSwept[i])
		}
	}
}

// TestFleetModeReleasesSettledRecords verifies the retention bound:
// fleet mode registers no requests, and terminated instances are
// released once subscribers have seen their final cost.
func TestFleetModeReleasesSettledRecords(t *testing.T) {
	eng, p := newProvider(3)
	p.EnableFleetMode(eng.Now().Add(30 * 24 * time.Hour))
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
	if n := len(p.requests); n != 0 {
		t.Fatalf("%d requests registered in fleet mode, want 0", n)
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
// resolver switching the provider's mode: on a default-mode provider,
// SetWorkloadRand only moves where draws come from, so spot requests
// whose first launch roll fails during an outage stay registered and a
// later sweep fulfils them.
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
		t.Fatalf("%d open requests registered, want %d", n, len(tags))
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
