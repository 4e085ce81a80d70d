package cloud

import (
	"testing"
	"time"

	"spotverse/internal/catalog"
)

// TestSettledRequestInSecondBucketNotRecycled pins when a spot request's
// record may be reused. A manual re-roll puts an open request into a
// second fulfill bucket; the first bucket fulfils it and a sweep
// compacts it out of the open index while the second bucket still
// holds it. A request filed right after must not inherit that bucket:
// it launches no earlier than its own placement delay, and each request
// gets exactly one instance.
func TestSettledRequestInSecondBucketNotRecycled(t *testing.T) {
	eng, p := newProvider(1)
	start := eng.Now()
	launchedAt := map[string][]time.Time{}
	p.OnLaunch(func(inst *Instance) { launchedAt[inst.Tag] = append(launchedAt[inst.Tag], eng.Now()) })
	runTo := func(off time.Duration) {
		t.Helper()
		if err := eng.Run(start.Add(off)); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := p.RequestSpot(catalog.M5XLarge, "eu-north-1", "a"); err != nil {
		t.Fatal(err)
	}
	runTo(10 * time.Second)
	p.EvaluateOpenRequests()
	if len(p.fulfillAt) != 2 {
		t.Fatalf("setup: %d fulfill buckets after the re-roll, want 2 (a launch roll failed)", len(p.fulfillAt))
	}
	runTo(50 * time.Second)
	if got := len(launchedAt["a"]); got != 1 {
		t.Fatalf("setup: request a launched %d times by +50s, want 1", got)
	}
	p.EvaluateOpenRequests()
	if len(p.open) != 0 {
		t.Fatalf("setup: sweep left %d requests in the open index, want 0", len(p.open))
	}

	runTo(51 * time.Second)
	filed := eng.Now()
	if _, err := p.RequestSpot(catalog.M5XLarge, "eu-north-1", "b"); err != nil {
		t.Fatal(err)
	}
	if len(p.fulfillAt) != 2 {
		t.Fatalf("setup: %d fulfill buckets after filing b, want 2 (b's launch roll failed)", len(p.fulfillAt))
	}
	runTo(3 * time.Minute)

	for _, tag := range []string{"a", "b"} {
		if got := len(launchedAt[tag]); got != 1 {
			t.Errorf("request %s launched %d instances, want 1", tag, got)
		}
	}
	if ats := launchedAt["b"]; len(ats) > 0 && ats[0].Before(filed.Add(p.fulfillDelay)) {
		t.Errorf("request b filed at +%v launched at +%v, before its %v placement delay",
			filed.Sub(start), ats[0].Sub(start), p.fulfillDelay)
	}
}

// TestTerminatedInstanceReclaimDoesNotFollowRecord terminates a spot
// instance whose capacity reclaim is pending and launches another one
// straight after, which may take over the released record. The first
// instance's reclaim instant must pass without reclaiming the second.
func TestTerminatedInstanceReclaimDoesNotFollowRecord(t *testing.T) {
	for _, relaunch := range []Lifecycle{LifecycleOnDemand, LifecycleSpot} {
		t.Run(relaunch.String(), func(t *testing.T) {
			eng, p := newProvider(3)
			var first *Instance
			p.OnLaunch(func(inst *Instance) {
				if inst.Tag == "a" {
					first = inst
				}
			})
			reclaimed := map[string]time.Time{}
			p.OnTerminate(func(inst *Instance, interrupted bool) {
				if interrupted {
					reclaimed[inst.Tag] = eng.Now()
				}
			})
			if _, err := p.RequestSpot(catalog.M5XLarge, "ca-central-1", "a"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20 && first == nil; i++ {
				if err := eng.RunFor(15 * time.Minute); err != nil {
					t.Fatal(err)
				}
				p.EvaluateOpenRequests()
			}
			if first == nil || first.State != StateRunning || first.termEv == nil || !first.termEv.At().After(eng.Now()) {
				t.Fatal("setup: no running spot instance with a pending reclaim")
			}
			reclaimAt := first.termEv.At()
			if err := p.Terminate(first.ID); err != nil {
				t.Fatal(err)
			}
			if relaunch == LifecycleOnDemand {
				if _, err := p.RunOnDemand(catalog.M5XLarge, "ca-central-1", "b"); err != nil {
					t.Fatal(err)
				}
			} else if _, err := p.RequestSpot(catalog.M5XLarge, "ca-central-1", "b"); err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(reclaimAt.Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
			if _, ok := reclaimed["a"]; ok {
				t.Error("terminated instance a was reclaimed afterwards")
			}
			if at, ok := reclaimed["b"]; ok && at.Equal(reclaimAt) {
				t.Errorf("instance b was reclaimed at a's reclaim instant %v", reclaimAt)
			}
		})
	}
}

// TestTerminateSubscribersSeeRecordUntilReturn pins the instance
// record's lifetime: it stays the terminated instance's until every
// OnTerminate subscriber has returned, even when an earlier subscriber
// launches a replacement synchronously.
func TestTerminateSubscribersSeeRecordUntilReturn(t *testing.T) {
	_, p := newProvider(1)
	a, err := p.RunOnDemand(catalog.M5XLarge, "us-east-1", "a")
	if err != nil {
		t.Fatal(err)
	}
	id := a.ID
	p.OnTerminate(func(inst *Instance, _ bool) {
		if inst.Tag == "a" {
			if _, err := p.RunOnDemand(catalog.M5XLarge, "us-east-1", "b"); err != nil {
				t.Error(err)
			}
		}
	})
	seen := 0
	p.OnTerminate(func(inst *Instance, _ bool) {
		seen++
		if inst.ID != id || inst.Tag != "a" || inst.State != StateTerminated {
			t.Errorf("second subscriber saw %s tag %q state %v, want the terminated %s tag \"a\"", inst.ID, inst.Tag, inst.State, id)
		}
	})
	if err := p.Terminate(id); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("second subscriber ran %d times, want 1", seen)
	}
	if n := len(p.RunningInstances()); n != 1 {
		t.Fatalf("%d running instances after the relaunch, want 1", n)
	}
}
