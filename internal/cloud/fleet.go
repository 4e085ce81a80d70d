package cloud

import (
	"math"
	"time"

	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// SetEventHorizon declares the instant the caller stops driving the
// engine at: events due at or after it are never scheduled, so a
// fleet-scale run carries no reclaims, notices or placements it could
// never fire. The caller must stop at exactly that instant; loops that
// stop on the first event after a horizon must not set one. Set it
// before filing any work.
func (p *Provider) SetEventHorizon(horizon time.Time) {
	p.eventHorizonNs = horizon.UnixNano()
}

// SetWorkloadRand installs a per-workload random-stream resolver: draws
// that decide one workload's trajectory — the launch-success roll, the
// on-demand AZ pick, the interruption TTL — come from the stream the
// resolver returns for the instance/request tag instead of the
// provider-wide sequential "cloud" stream. A workload's draw sequence
// then depends only on its own simulated history, which is what lets a
// sharded fleet run produce bit-identical trajectories at any shard
// count, and lets a per-workload run reproduce them. A nil resolver (or
// a nil stream for a tag) falls back to the sequential stream. Install
// before filing any work.
func (p *Provider) SetWorkloadRand(fn func(tag string) *simclock.SplitMix64) {
	p.tagRand = fn
}

// pastEventHorizon reports whether an event due at t could never fire
// under the declared event horizon.
//
//spotverse:hotpath
func (p *Provider) pastEventHorizon(t time.Time) bool {
	return p.eventHorizonNs != 0 && t.UnixNano() >= p.eventHorizonNs
}

// fulfillBucket is the set of placements landing on one instant, and
// the engine event that runs them.
type fulfillBucket struct {
	ev   simclock.Event
	reqs []*SpotRequest
}

// scheduleBatchedFulfill queues req's placement p.fulfillDelay from
// now, batched with every other placement landing on that instant: a
// sweep wave fulfilling thousands of requests costs one heap entry. The
// bucket's engine event is armed when the bucket is created, so the
// bucket takes its first placement's same-instant slot.
//
// The callback is the single prebound p.fulfillCb — fireFulfills
// recovers the bucket key from the engine clock at fire time — and
// fired buckets are recycled through bucketPool with their event and
// array, so a warm relaunch wave costs map traffic only, no per-bucket
// event, closure or slice allocation.
func (p *Provider) scheduleBatchedFulfill(req *SpotRequest) {
	at := p.eng.Now().Add(p.fulfillDelay)
	if p.pastEventHorizon(at) {
		return // the run stops before the placement could land
	}
	atNs := at.UnixNano()
	b := p.fulfillAt[atNs]
	if b == nil {
		if n := len(p.bucketPool); n > 0 {
			b = p.bucketPool[n-1]
			p.bucketPool = p.bucketPool[:n-1]
		} else {
			b = &fulfillBucket{}
		}
		p.eng.ArmAfter(&b.ev, p.fulfillDelay, "spot-fulfill", p.fulfillCb)
		p.fulfillAt[atNs] = b
	}
	b.reqs = append(b.reqs, req)
	req.buckets++
}

// fireFulfills runs one bucket's placements in add order. The bucket
// due now is exactly the one keyed by the engine clock: each key gets
// one event, armed at bucket creation for that instant.
func (p *Provider) fireFulfills() {
	atNs := p.eng.Now().UnixNano()
	b := p.fulfillAt[atNs]
	delete(p.fulfillAt, atNs)
	p.batchFired++
	for i, req := range b.reqs {
		b.reqs[i] = nil // no settled-request retention via the pooled array
		req.buckets--
		if req.State != RequestOpen {
			p.releaseRequest(req)
			continue
		}
		p.fulfill(req)
	}
	b.reqs = b.reqs[:0]
	p.bucketPool = append(p.bucketPool, b)
}

// BatchEventsFired reports how many batched-fulfill bucket events have
// executed. The count is engine-shape bookkeeping (how placements were
// coalesced), not simulation outcome; the sharded fleet driver
// subtracts it when building its shard-count-invariant event total.
func (p *Provider) BatchEventsFired() uint64 { return p.batchFired }

// crossKey identifies one price-crossing question: will the walk for
// this (market, AZ index) cross above this bid? Every instance launched
// with the same bid in the same AZ shares the answer. The bid is keyed by
// its bits, so the key hashes as one block of memory.
type crossKey struct {
	offer   *market.Offer
	az      int
	bidBits uint64
}

// crossState is the memoized answer. Exactly one of the two shapes is
// stored: a found crossing (hasCross, crossNs), or a scanned window
// [.., scannedNs) known to contain no crossing.
type crossState struct {
	hasCross  bool
	crossNs   int64
	scannedNs int64
}

// nextPriceCross returns the first price step strictly after now at
// which the walk crosses above the bid, if any within the scan horizon.
// The answer is memoized per (market, AZ, bid): every same-bid launch in
// an AZ shares one crossing scan instead of re-walking up to 240 steps.
// Scan starts only move forward in simulated time, so a cached crossing
// at/after `from` is still the *first* crossing after `from` (the
// earlier scan that found it covered every step in between), and a
// cached no-crossing window lets a rescan skip the covered prefix. The
// price walk is pure, so the memoized answer is exact.
func (p *Provider) nextPriceCross(inst *Instance, now time.Time) (time.Time, bool) {
	nowNs := now.UnixNano()
	fromNs, endNs := nextPriceStep(nowNs), nowNs+int64(priceScanHorizon)
	key := crossKey{offer: inst.offer, az: inst.az, bidBits: math.Float64bits(inst.BidUSD)}
	c := p.crossCache[key]
	if c.hasCross && c.crossNs >= fromNs {
		if c.crossNs < endNs {
			return time.Unix(0, c.crossNs).UTC(), true
		}
		return time.Time{}, false
	}
	scan := fromNs
	if !c.hasCross && c.scannedNs > fromNs {
		// Resume at the first grid step at/after the covered window;
		// every earlier step was already scanned crossing-free.
		scan = nextPriceStep(c.scannedNs - 1)
	}
	// One walk resolution for the whole scan (up to 240 steps); the
	// samples are the same SpotPrice ones.
	series := inst.offer.PriceSeries(inst.az)
	for at := scan; at < endNs; at += int64(market.PriceStep) {
		if series.AtNs(at) > inst.BidUSD {
			p.crossCache[key] = crossState{hasCross: true, crossNs: at}
			return time.Unix(0, at).UTC(), true
		}
	}
	p.crossCache[key] = crossState{scannedNs: endNs}
	return time.Time{}, false
}
