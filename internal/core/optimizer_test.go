package core

import (
	"errors"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/simclock"
)

// staleManager deploys a degraded-mode manager, takes the advisor
// snapshot at the epoch, then silences the collector Lambda so that
// snapshot only ages. It returns the epoch scores by region.
func staleManager(t *testing.T, seed int64) (*SpotVerse, Deps, map[catalog.Region]int) {
	t.Helper()
	sv, deps := newSpotVerse(t, Config{Seed: seed, Threshold: 5, DiscountStale: true})
	fresh, err := sv.Optimizer().ScoreRegions()
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) == 0 {
		t.Fatal("fresh snapshot scored no regions")
	}
	byRegion := make(map[catalog.Region]int, len(fresh))
	for _, s := range fresh {
		byRegion[s.Region] = s.Combined
	}
	silenced := errors.New("collector silenced")
	deps.Lambda.SetFault(func(op string, _ catalog.Region) error {
		if op == "invoke:"+CollectorFunction {
			return silenced
		}
		return nil
	})
	return sv, deps, byRegion
}

// TestDiscountStaleScoring pins the degraded-mode discount: one point
// per StaleAfter of snapshot age past the first StaleAfter, and no
// region at all once the snapshot is older than StaleCutoff.
func TestDiscountStaleScoring(t *testing.T) {
	sv, deps, fresh := staleManager(t, 21)
	for _, tc := range []struct {
		age  time.Duration
		drop int
	}{
		{7 * time.Hour, 1},
		{13 * time.Hour, 2},
	} {
		if err := deps.Engine.Run(simclock.Epoch.Add(tc.age)); err != nil {
			t.Fatal(err)
		}
		scores, err := sv.Optimizer().ScoreRegions()
		if err != nil {
			t.Fatal(err)
		}
		if len(scores) != len(fresh) {
			t.Fatalf("age %v: scored %d regions, want all %d", tc.age, len(scores), len(fresh))
		}
		for _, s := range scores {
			if want := fresh[s.Region] - tc.drop; s.Combined != want {
				t.Fatalf("age %v: %s scored %d, want %d (fresh %d minus %d)",
					tc.age, s.Region, s.Combined, want, fresh[s.Region], tc.drop)
			}
		}
	}
	if err := deps.Engine.Run(simclock.Epoch.Add(StaleCutoff + time.Hour)); err != nil {
		t.Fatal(err)
	}
	scores, err := sv.Optimizer().ScoreRegions()
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 0 {
		t.Fatalf("snapshot past StaleCutoff still scored %d regions", len(scores))
	}
}

// TestDiscountStaleFallsBackToOnDemand: when every region ages out,
// PlaceInitial places every workload on the cheapest on-demand region.
func TestDiscountStaleFallsBackToOnDemand(t *testing.T) {
	sv, deps, _ := staleManager(t, 22)
	if err := deps.Engine.Run(simclock.Epoch.Add(StaleCutoff + time.Hour)); err != nil {
		t.Fatal(err)
	}
	od, err := sv.Optimizer().CheapestOnDemand()
	if err != nil {
		t.Fatal(err)
	}
	placements, err := sv.PlaceInitial([]string{"w1", "w2", "w3"})
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range placements {
		if p.Lifecycle != cloud.LifecycleOnDemand || p.Region != od {
			t.Fatalf("%s: placement = %+v, want on-demand in %s", id, p, od)
		}
	}
}
