package cloud

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// refCostBetween is costBetween as a time.Time loop: the reference the
// nanosecond price grid must match bit for bit.
func refCostBetween(inst *Instance, from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	if inst.Lifecycle == LifecycleOnDemand {
		return inst.offer.OnDemandPrice() * to.Sub(from).Hours()
	}
	series := inst.offer.PriceSeries(inst.az)
	var cost float64
	for seg := from; seg.Before(to); {
		segEnd := seg.Truncate(market.PriceStep).Add(market.PriceStep)
		if segEnd.After(to) {
			segEnd = to
		}
		cost += series.At(seg) * segEnd.Sub(seg).Hours()
		seg = segEnd
	}
	return cost
}

// refNextPriceCross is nextPriceCross as a time.Time loop over its own
// memo.
func refNextPriceCross(cache map[crossKey]crossState, inst *Instance, now time.Time) (time.Time, bool) {
	from := now.Truncate(market.PriceStep).Add(market.PriceStep)
	end := now.Add(priceScanHorizon)
	key := crossKey{offer: inst.offer, az: inst.az, bidBits: math.Float64bits(inst.BidUSD)}
	c := cache[key]
	fromNs, endNs := from.UnixNano(), end.UnixNano()
	if c.hasCross && c.crossNs >= fromNs {
		if c.crossNs < endNs {
			return time.Unix(0, c.crossNs).UTC(), true
		}
		return time.Time{}, false
	}
	scan := from
	if !c.hasCross && c.scannedNs > fromNs {
		covered := time.Unix(0, c.scannedNs).UTC()
		scan = covered.Truncate(market.PriceStep)
		if scan.Before(covered) {
			scan = scan.Add(market.PriceStep)
		}
	}
	series := inst.offer.PriceSeries(inst.az)
	for at := scan; at.Before(end); at = at.Add(market.PriceStep) {
		if series.At(at) > inst.BidUSD {
			cache[key] = crossState{hasCross: true, crossNs: at.UnixNano()}
			return at, true
		}
	}
	cache[key] = crossState{scannedNs: endNs}
	return time.Time{}, false
}

// gridInstant draws an instant near start: before the series start, on
// a price-step boundary, on the series start's own step grid, or
// anywhere in the next 40 days.
func gridInstant(rng *rand.Rand, start time.Time) time.Time {
	at := start.Add(time.Duration(rng.Int63n(int64(42*24*time.Hour))) - 2*24*time.Hour)
	switch rng.Intn(4) {
	case 0:
		return at.Truncate(market.PriceStep)
	case 1:
		return start.Add(time.Duration(rng.Intn(160)-8) * market.PriceStep)
	}
	return at
}

// TestPriceGridMatchesTimeLoops checks costBetween and nextPriceCross,
// which step the 6 h price grid in Unix nanoseconds, against the
// time.Time loops bit for bit: at engines and series started on and off
// the grid, from instants before the series start, on boundaries, over
// spans of many segments, and through resumed memo scans.
func TestPriceGridMatchesTimeLoops(t *testing.T) {
	starts := []time.Time{simclock.Epoch, simclock.Epoch.Add(97*time.Minute + 13*time.Second + 7)}
	cat := catalog.Default()
	for si, start := range starts {
		rng := rand.New(rand.NewSource(int64(si + 1)))
		mkt := market.New(cat, 11, start)
		p := New(simclock.NewEngineAt(start), mkt, 11)
		refCache := make(map[crossKey]crossState)
		var insts []*Instance
		for _, r := range cat.Regions()[:6] {
			o, ok := mkt.Offer(catalog.M5XLarge, r)
			if !ok {
				t.Fatalf("m5.xlarge not offered in %s", r)
			}
			for az := range o.NumZones() {
				sample := o.PriceSeries(az).At(start.Add(time.Duration(rng.Intn(120)) * market.PriceStep))
				for _, f := range []float64{0.97, 1.04, 1.12, 5} {
					insts = append(insts, &Instance{offer: o, az: az, Lifecycle: LifecycleSpot, BidUSD: sample * f})
				}
			}
		}
		var costs, crosses, resumes int
		for _, inst := range insts {
			for range 40 {
				from := gridInstant(rng, start)
				to := from.Add(time.Duration(rng.Int63n(int64(20 * 24 * time.Hour))))
				if rng.Intn(3) == 0 {
					to = gridInstant(rng, start)
				}
				got, want := p.costBetween(inst, from, to), refCostBetween(inst, from, to)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("start %v: costBetween(%v, %v) = %v, time loop %v", start, from, to, got, want)
				}
				costs++
			}
			// Scan starts only move forward, as they do in a run.
			now := start
			for range 30 {
				now = now.Add(time.Duration(rng.Int63n(int64(6 * 24 * time.Hour))))
				if rng.Intn(3) == 0 {
					now = now.Truncate(market.PriceStep)
				}
				key := crossKey{offer: inst.offer, az: inst.az, bidBits: math.Float64bits(inst.BidUSD)}
				if c := p.crossCache[key]; !c.hasCross && c.scannedNs > nextPriceStep(now.UnixNano()) {
					resumes++
				}
				gotAt, gotOK := p.nextPriceCross(inst, now)
				wantAt, wantOK := refNextPriceCross(refCache, inst, now)
				if gotOK != wantOK || gotAt != wantAt {
					t.Fatalf("start %v: nextPriceCross(bid %v, %v) = %v %v, time loop %v %v", start, inst.BidUSD, now, gotAt, gotOK, wantAt, wantOK)
				}
				if gotOK {
					crosses++
				}
			}
		}
		if crosses == 0 || resumes == 0 {
			t.Fatalf("start %v: %d costs, %d crossings, %d resumed scans; want crossings and resumed scans", start, costs, crosses, resumes)
		}
	}
}

// TestPriceCrossResumesOnCoveredEnd pins the resumed memo scan's first
// step: a scan that found no crossing covers [from, end), so a later
// scan from before end must resume at end itself when end lies on the
// grid. The case is built so the only crossing is that step.
func TestPriceCrossResumesOnCoveredEnd(t *testing.T) {
	mkt := market.New(catalog.Default(), 11, simclock.Epoch)
	p := New(simclock.NewEngine(), mkt, 11)
	o, ok := mkt.Offer(catalog.M5XLarge, catalog.Default().Regions()[0])
	if !ok {
		t.Fatal("m5.xlarge not offered")
	}
	series := o.PriceSeries(0)
	window := int(priceScanHorizon / market.PriceStep)
	for k := 0; k < 2000; k++ {
		now := simclock.Epoch.Add(time.Duration(k) * market.PriceStep)
		bid := 0.0
		for j := 1; j < window; j++ {
			bid = max(bid, series.At(now.Add(time.Duration(j)*market.PriceStep)))
		}
		end := now.Add(priceScanHorizon)
		if series.At(end) <= bid {
			continue
		}
		inst := &Instance{offer: o, Lifecycle: LifecycleSpot, BidUSD: bid}
		if at, found := p.nextPriceCross(inst, now); found {
			t.Fatalf("scan from %v found a crossing at %v under the window's maximum", now, at)
		}
		at, found := p.nextPriceCross(inst, now.Add(24*time.Hour))
		if !found || !at.Equal(end) {
			t.Fatalf("resumed scan = %v %v, want the crossing at %v", at, found, end)
		}
		return
	}
	t.Fatal("no window whose next step sets a new maximum")
}
