package cloud

import (
	"errors"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

func newProvider(seed int64) (*simclock.Engine, *Provider) {
	eng := simclock.NewEngine()
	mkt := market.New(catalog.Default(), seed, simclock.Epoch)
	return eng, New(eng, mkt, seed)
}

func TestOnDemandLaunchAndBilling(t *testing.T) {
	eng, p := newProvider(1)
	inst, err := p.RunOnDemand(catalog.M5XLarge, "us-east-1", "w1")
	if err != nil {
		t.Fatal(err)
	}
	if inst.State != StateRunning || inst.Lifecycle != LifecycleOnDemand {
		t.Fatalf("bad instance state: %+v", inst)
	}
	if err := eng.RunFor(10 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if inst.State != StateRunning {
		t.Fatal("on-demand instance must never be interrupted")
	}
	if err := p.Terminate(inst.ID); err != nil {
		t.Fatal(err)
	}
	od, _ := p.Market().Catalog().OnDemandPrice(catalog.M5XLarge, "us-east-1")
	want := od * 10
	if diff := inst.CostUSD - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("cost = %v, want %v", inst.CostUSD, want)
	}
}

func TestOnDemandUnknownRegion(t *testing.T) {
	_, p := newProvider(1)
	if _, err := p.RunOnDemand(catalog.M5XLarge, "atlantis-1", "w"); err == nil {
		t.Fatal("unknown region should error")
	}
}

func TestP3RejectedWhereUnoffered(t *testing.T) {
	_, p := newProvider(1)
	if _, err := p.RequestSpot(catalog.P32XLarge, "ca-central-1", "w"); err == nil {
		t.Fatal("p3 in non-offering region should error")
	}
}

func TestSpotRequestFulfillment(t *testing.T) {
	eng, p := newProvider(2)
	// eu-north-1 is stable: high placement score, launches should succeed
	// quickly for most seeds; retry sweeps cover the rest.
	req, err := p.RequestSpot(catalog.M5XLarge, "eu-north-1", "w1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && req.State == RequestOpen; i++ {
		if err := eng.RunFor(15 * time.Minute); err != nil {
			t.Fatal(err)
		}
		p.EvaluateOpenRequests()
	}
	if err := eng.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if req.State != RequestActive {
		t.Fatalf("request state = %v after retries, want active", req.State)
	}
	inst, err := p.Instance(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Lifecycle != LifecycleSpot || inst.Region() != "eu-north-1" {
		t.Fatalf("bad fulfilled instance: %+v", inst)
	}
	if inst.Tag != "w1" {
		t.Fatalf("tag not propagated: %q", inst.Tag)
	}
}

func TestSpotInterruptionDeliversNoticeThenReclaims(t *testing.T) {
	eng, p := newProvider(3)
	var (
		notices  []InstanceID
		reclaims []InstanceID
	)
	p.OnInterruptionNotice(func(inst *Instance) { notices = append(notices, inst.ID) })
	p.OnTerminate(func(inst *Instance, interrupted bool) {
		if interrupted {
			reclaims = append(reclaims, inst.ID)
		}
	})
	// Launch many spot instances in the riskiest market so several get
	// reclaimed inside the horizon.
	for i := 0; i < 30; i++ {
		if _, err := p.RequestSpot(catalog.M5XLarge, "ca-central-1", "w"); err != nil {
			t.Fatal(err)
		}
	}
	sweep := eng.Every(15*time.Minute, "sweep", func(time.Time) { p.EvaluateOpenRequests() })
	defer sweep.Stop()
	if err := eng.Run(simclock.Epoch.Add(48 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(reclaims) == 0 {
		t.Fatal("no interruptions in 48h in the riskiest region; hazard wiring broken")
	}
	if len(notices) < len(reclaims) {
		t.Fatalf("notices %d < reclaims %d; every reclaim must be preceded by a notice", len(notices), len(reclaims))
	}
}

func TestNoticePrecedesReclaimByWindow(t *testing.T) {
	eng, p := newProvider(4)
	noticeAt := map[InstanceID]time.Time{}
	var violations int
	p.OnInterruptionNotice(func(inst *Instance) { noticeAt[inst.ID] = eng.Now() })
	p.OnTerminate(func(inst *Instance, interrupted bool) {
		if !interrupted {
			return
		}
		nt, ok := noticeAt[inst.ID]
		if !ok {
			violations++
			return
		}
		gap := eng.Now().Sub(nt)
		if gap > NoticeWindow {
			violations++
		}
	})
	for i := 0; i < 40; i++ {
		_, _ = p.RequestSpot(catalog.M5XLarge, "us-east-1", "w")
	}
	sweep := eng.Every(15*time.Minute, "sweep", func(time.Time) { p.EvaluateOpenRequests() })
	defer sweep.Stop()
	if err := eng.Run(simclock.Epoch.Add(72 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d reclaims without a timely notice", violations)
	}
}

func TestTerminateCancelsPendingInterruption(t *testing.T) {
	eng, p := newProvider(5)
	interrupted := 0
	p.OnTerminate(func(_ *Instance, i bool) {
		if i {
			interrupted++
		}
	})
	req, err := p.RequestSpot(catalog.M5XLarge, "eu-north-1", "w")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && req.State == RequestOpen; i++ {
		_ = eng.RunFor(15 * time.Minute)
		p.EvaluateOpenRequests()
	}
	_ = eng.RunFor(time.Minute)
	if req.State != RequestActive {
		t.Skip("placement unlucky for this seed")
	}
	if err := p.Terminate(req.Instance); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(simclock.Epoch.Add(30 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if interrupted != 0 {
		t.Fatal("terminated instance later fired an interruption")
	}
}

func TestTerminateErrors(t *testing.T) {
	_, p := newProvider(6)
	if err := p.Terminate(404); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	inst, err := p.RunOnDemand(catalog.M5Large, "us-east-1", "w")
	if err != nil {
		t.Fatal(err)
	}
	// A subscriber terminating the instance it is being told about finds
	// it no longer running; once released, the instance is not found.
	var reentrant error
	p.OnTerminate(func(i *Instance, _ bool) { reentrant = p.Terminate(i.ID) })
	if err := p.Terminate(inst.ID); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(reentrant, ErrNotRunning) {
		t.Fatalf("re-entrant terminate err = %v, want ErrNotRunning", reentrant)
	}
	if err := p.Terminate(inst.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double terminate err = %v, want ErrNotFound", err)
	}
}

func TestSpotCostCheaperThanOnDemand(t *testing.T) {
	eng, p := newProvider(8)
	req, err := p.RequestSpot(catalog.M5XLarge, "eu-north-1", "w")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && req.State == RequestOpen; i++ {
		_ = eng.RunFor(15 * time.Minute)
		p.EvaluateOpenRequests()
	}
	_ = eng.RunFor(time.Minute)
	if req.State != RequestActive {
		t.Skip("placement unlucky for this seed")
	}
	inst, _ := p.Instance(req.Instance)
	_ = eng.RunFor(5 * time.Hour)
	if inst.State != StateRunning {
		t.Skip("interrupted before measurement for this seed")
	}
	var got float64
	p.OnTerminate(func(i *Instance, _ bool) { got = i.CostUSD })
	if err := p.Terminate(inst.ID); err != nil {
		t.Fatal(err)
	}
	od, _ := p.Market().Catalog().OnDemandPrice(catalog.M5XLarge, "eu-north-1")
	elapsed := inst.TerminatedAt.Sub(inst.LaunchedAt).Hours()
	if got <= 0 || got >= od*elapsed {
		t.Fatalf("spot cost %v not in (0, on-demand %v)", got, od*elapsed)
	}
}

func TestRunningAndAllInstancesOrdering(t *testing.T) {
	_, p := newProvider(9)
	for i := 0; i < 5; i++ {
		if _, err := p.RunOnDemand(catalog.M5Large, "us-east-1", "w"); err != nil {
			t.Fatal(err)
		}
	}
	running := p.RunningInstances()
	if len(running) != 5 {
		t.Fatalf("running = %d, want 5", len(running))
	}
	for i := 1; i < len(running); i++ {
		if running[i].ID <= running[i-1].ID {
			t.Fatal("instances not ordered by ID")
		}
	}
	if err := p.Terminate(running[0].ID); err != nil {
		t.Fatal(err)
	}
	if len(p.RunningInstances()) != 4 {
		t.Fatal("running count wrong after terminate")
	}
	if _, err := p.Instance(running[0].ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("terminated instance lookup err = %v, want ErrNotFound (released)", err)
	}
	if n := len(p.instances); n != 4 {
		t.Fatalf("%d instance records retained, want the 4 running", n)
	}
}

func TestTotalInstanceCostAggregates(t *testing.T) {
	eng, p := newProvider(10)
	var got float64
	p.OnTerminate(func(inst *Instance, _ bool) { got += inst.CostUSD })
	a, _ := p.RunOnDemand(catalog.M5Large, "us-east-1", "w")
	b, _ := p.RunOnDemand(catalog.M5Large, "us-east-1", "w")
	_ = eng.RunFor(2 * time.Hour)
	_ = p.Terminate(a.ID)
	_ = eng.RunFor(1 * time.Hour)
	_ = p.Terminate(b.ID)
	od, _ := p.Market().Catalog().OnDemandPrice(catalog.M5Large, "us-east-1")
	want := od*2 + od*3
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("total cost = %v, want %v", got, want)
	}
}

func TestInterruptionRateMatchesHazard(t *testing.T) {
	// Property: over many instances, the empirical survival past 10h in
	// ca-central-1 should roughly match exp(-10*hazard).
	eng, p := newProvider(11)
	hazard, err := p.Market().HazardPerHour(catalog.M5XLarge, "ca-central-1", simclock.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	launched := 0
	p.OnLaunch(func(*Instance) { launched++ })
	for i := 0; i < n; i++ {
		_, _ = p.RequestSpot(catalog.M5XLarge, "ca-central-1", "w")
	}
	sweep := eng.Every(15*time.Minute, "sweep", func(time.Time) { p.EvaluateOpenRequests() })
	defer sweep.Stop()
	_ = eng.Run(simclock.Epoch.Add(10*time.Hour + time.Minute))
	surviving := len(p.RunningInstances())
	if launched < n*9/10 {
		t.Fatalf("only %d/%d launched", launched, n)
	}
	frac := float64(surviving) / float64(launched)
	// Launches trickle in over sweeps, so exposure is slightly under 10h;
	// allow a generous band around exp(-10λ).
	wantLo := 0.6 * expApprox(-10*hazard)
	wantHi := 1.7*expApprox(-10*hazard) + 0.05
	if frac < wantLo || frac > wantHi {
		t.Fatalf("survival %v outside [%v, %v] for hazard %v", frac, wantLo, wantHi, hazard)
	}
}

func expApprox(x float64) float64 {
	// Small helper to avoid importing math for one call in tests.
	sum, term := 1.0, 1.0
	for i := 1; i < 30; i++ {
		term *= x / float64(i)
		sum += term
	}
	return sum
}
