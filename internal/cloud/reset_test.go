package cloud

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// resetScript drives p for stop of simulated time from its engine's
// start, under an event horizon a day later: spot requests (some with a
// bid low enough to cross), on-demand launches, the 15-minute sweep,
// notices, and a relaunch per reclaim. When finish is set it then
// terminates what still runs. It returns one line per launch, notice
// and termination, carrying every field a caller can read.
func resetScript(eng *simclock.Engine, p *Provider, seed int64, stop time.Duration, finish bool) []string {
	var log []string
	regions := []catalog.Region{"ca-central-1", "eu-north-1", "us-east-1"}
	at := func() string { return eng.Now().Sub(simclock.Epoch).String() }
	p.OnLaunch(func(inst *Instance) {
		log = append(log, fmt.Sprintf("%s launch %s %s %s %v", at(), inst.ID, inst.Tag, inst.AZ(), inst.Lifecycle))
	})
	p.OnInterruptionNotice(func(inst *Instance) { log = append(log, fmt.Sprintf("%s notice %s", at(), inst.ID)) })
	p.OnTerminate(func(inst *Instance, interrupted bool) {
		log = append(log, fmt.Sprintf("%s end %s %s %v %v %x", at(), inst.ID, inst.Tag, interrupted, inst.Reason, math.Float64bits(inst.CostUSD)))
		if interrupted {
			if _, err := p.RequestSpot(catalog.M5XLarge, inst.Region(), inst.Tag); err != nil {
				log = append(log, err.Error())
			}
		}
	})
	p.SetEventHorizon(eng.Now().Add(stop + 24*time.Hour))
	for i := range 24 {
		tag := fmt.Sprintf("w-%d-%03d", seed, i)
		r := regions[i%len(regions)]
		var err error
		switch i % 6 {
		case 0:
			_, err = p.RunOnDemand(catalog.M5XLarge, r, tag)
		case 1:
			_, err = p.RequestSpotWithBid(catalog.M5XLarge, r, tag, 0.05)
		default:
			_, err = p.RequestSpot(catalog.M5XLarge, r, tag)
		}
		if err != nil {
			log = append(log, err.Error())
		}
	}
	tk := eng.Every(15*time.Minute, "sweep", func(time.Time) { p.EvaluateOpenRequests() })
	_ = eng.Run(eng.Now().Add(stop))
	if !finish {
		return log
	}
	tk.Stop()
	for _, inst := range p.RunningInstances() {
		_ = p.Terminate(inst.ID)
	}
	log = append(log, fmt.Sprintf("open %d batches %d", len(p.OpenRequests()), p.BatchEventsFired()))
	return log
}

// TestProviderResetMatchesFresh checks that a reset provider is a fresh
// one: after a run on another seed and market, cut off with instances
// running, requests open, fulfill buckets and reclaims pending, a reset
// engine and provider play a script exactly as a new pair does — the
// same IDs, zones, draws, costs and event instants.
func TestProviderResetMatchesFresh(t *testing.T) {
	const seed = 5
	mkt := func(seed int64) *market.Model { return market.New(catalog.Default(), seed, simclock.Epoch) }
	fresh := simclock.NewEngine()
	want := resetScript(fresh, New(fresh, mkt(seed), seed), seed, 6*24*time.Hour, true)

	eng := simclock.NewEngine()
	p := New(eng, mkt(11), 11)
	prior := resetScript(eng, p, 11, 4*24*time.Hour, false)
	for i := range 8 {
		if _, err := p.RequestSpot(catalog.M5XLarge, "eu-north-1", fmt.Sprintf("left-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(p.open) == 0 || len(p.instances) == 0 || len(p.fulfillAt) == 0 {
		t.Fatalf("setup: prior run left %d events, %d open requests, %d instances, %d buckets; want work pending",
			eng.Pending(), len(p.open), len(p.instances), len(p.fulfillAt))
	}
	if slices.Equal(prior, want) {
		t.Fatal("setup: the prior run equals the checked one")
	}
	eng.Reset(simclock.Epoch)
	p.Reset(mkt(seed), seed)
	if got := resetScript(eng, p, seed, 6*24*time.Hour, true); !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("reset provider diverges at line %d:\n  fresh: %s\n  reset: %s", i, want[i], got[i])
			}
		}
		t.Fatalf("reset provider logged %d lines, fresh %d", len(got), len(want))
	}
}
