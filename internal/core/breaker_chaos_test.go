package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

// lambdaBrownout is a switchable injected fault on the interruption
// handler's Lambda: while on, every invocation fails with a typed chaos
// brownout attributed to one region, the error shape breakerKey
// attributes per-(service, region).
type lambdaBrownout struct{ on bool }

func (f *lambdaBrownout) fault(op string, _ catalog.Region) error {
	if !f.on {
		return nil
	}
	return &chaos.Error{Class: chaos.Unavailable, Service: chaos.ServiceLambda, Op: op, Region: "eu-west-1"}
}

// breakerHarness deploys a manager whose handler Lambda is behind a
// switchable brownout.
func breakerHarness(t *testing.T, seed int64) (*SpotVerse, Deps, *lambdaBrownout, map[string]bool) {
	t.Helper()
	sv, deps := newSpotVerse(t, Config{Seed: seed, Threshold: 5})
	bo := &lambdaBrownout{on: true}
	deps.Lambda.SetFault(bo.fault)
	relaunched := make(map[string]bool)
	return sv, deps, bo, relaunched
}

func interruptWorkload(t *testing.T, sv *SpotVerse, id string, relaunched map[string]bool) {
	t.Helper()
	if err := sv.OnInterrupted(id, "ca-central-1", func(strategy.Placement) {
		relaunched[id] = true
	}); err != nil {
		t.Fatal(err)
	}
}

// tripBreaker interrupts DefaultBreakerFailures workloads into the
// brownout; once Step Functions exhausts each execution's retries, the
// last failure trips the breaker. It returns the interrupted IDs.
func tripBreaker(t *testing.T, sv *SpotVerse, deps Deps, relaunched map[string]bool) []string {
	t.Helper()
	ids := make([]string, DefaultBreakerFailures)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i+1)
		interruptWorkload(t, sv, ids[i], relaunched)
	}
	if err := deps.Engine.Run(simclock.Epoch.Add(5 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, trips, _ := sv.Controller().ResilienceStats(); trips != 1 {
		t.Fatalf("trips = %d after %d exhausted executions, want 1", trips, DefaultBreakerFailures)
	}
	return ids
}

func TestBreakerChaosHalfOpenProbeCloses(t *testing.T) {
	sv, deps, bo, relaunched := breakerHarness(t, 31)
	ids := tripBreaker(t, sv, deps, relaunched)
	// While open, new interruptions are deferred, not burned into the
	// browned-out dependency.
	interruptWorkload(t, sv, "late", relaunched)
	if err := deps.Engine.Run(simclock.Epoch.Add(20 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, _, skips := sv.Controller().ResilienceStats(); skips == 0 {
		t.Fatal("open breaker deferred nothing")
	}
	if relaunched["late"] {
		t.Fatal("late relaunched while the breaker was open")
	}
	// The brownout lifts. Past the cooldown the recovery sweep's trial
	// execution half-opens the breaker; its success closes it and every
	// migration completes.
	bo.on = false
	if err := deps.Engine.Run(simclock.Epoch.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	for _, id := range append(ids, "late") {
		if !relaunched[id] {
			t.Fatalf("%s not relaunched after recovery", id)
		}
	}
	if _, trips, _ := sv.Controller().ResilienceStats(); trips != 1 {
		t.Fatalf("trips = %d after successful probe, want still 1 (half-open closed, not re-tripped)", trips)
	}
}

func TestBreakerChaosHalfOpenProbeReTrips(t *testing.T) {
	sv, deps, _, relaunched := breakerHarness(t, 32)
	ids := tripBreaker(t, sv, deps, relaunched)
	// The brownout never lifts: every post-cooldown trial execution fails
	// and re-trips the breaker immediately.
	if err := deps.Engine.Run(simclock.Epoch.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	_, trips, skips := sv.Controller().ResilienceStats()
	if trips < 2 {
		t.Fatalf("trips = %d under a sustained brownout, want >= 2 (failed probes re-trip)", trips)
	}
	if skips == 0 {
		t.Fatal("sustained brownout deferred nothing")
	}
	for _, id := range ids {
		if relaunched[id] {
			t.Fatalf("%s relaunched through a permanent brownout", id)
		}
	}
}

// TestBreakerConcurrentProbes pins the breaker's concurrency contract
// under -race: the raw state machine is engine-serialised inside the
// Controller, so out-of-engine users must guard it with a mutex — and
// under that guard, interleaved probes keep the state machine coherent
// (valid state, streak strictly below threshold, trips monotone).
func TestBreakerConcurrentProbes(t *testing.T) {
	b := newBreaker(3, time.Minute)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				at := simclock.Epoch.Add(time.Duration(i) * time.Second)
				mu.Lock()
				if b.allow(at) {
					if (g+i)%3 == 0 {
						b.success()
					} else {
						b.failure(at)
					}
				}
				state, streak, trips := b.state, b.consecutive, b.trips
				mu.Unlock()
				if state != breakerClosed && state != breakerOpen && state != breakerHalfOpen {
					t.Errorf("invalid breaker state %d", state)
					return
				}
				if streak < 0 || streak >= 3 {
					t.Errorf("consecutive streak %d outside [0, threshold)", streak)
					return
				}
				if trips < 0 {
					t.Errorf("negative trips %d", trips)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b.trips == 0 {
		t.Fatal("a failure-heavy interleaving never tripped the breaker")
	}
}
