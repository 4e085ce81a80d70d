package cloud

import (
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// EnableFleetMode switches the provider into bounded-retention,
// batch-scheduling operation for fleet-scale runs that stop at horizon:
//
//   - Open spot requests are tracked in an index, so the 15-minute
//     retry sweep is O(open requests) instead of scanning every request
//     ever filed. Requests get no ID and no registry entry: fleet
//     drivers never look one up or cancel one.
//   - Terminated instances are released as they settle, keeping
//     retention proportional to what is running, not to run history.
//     Subscribers see each instance's final cost through OnTerminate;
//     TotalInstanceCost covers live instances only.
//   - Fulfill callbacks are batched into pooled per-instant buckets: a
//     sweep wave fulfilling thousands of requests 45 seconds later
//     costs one heap entry (and no per-request closure), not thousands.
//   - With no notice subscriber, interruption and price-crossing
//     notices are not scheduled at all; only the reclaims are.
//   - Events due at or after horizon are never scheduled. The caller
//     must stop driving the engine at exactly that instant; loops that
//     stop on the first event after a horizon must not use fleet mode.
//
// Every draw and every launch happens in the default path's order, so
// a workload's trajectory is unchanged. Enable before filing any work;
// flipping modes mid-run is not supported.
func (p *Provider) EnableFleetMode(horizon time.Time) {
	p.fleet = true
	p.eventHorizonNs = horizon.UnixNano()
	p.fulfillAt = make(map[int64][]*SpotRequest)
	p.fulfillCb = p.fireFulfills
	p.crossCache = make(map[crossKey]crossState)
}

// SetWorkloadRand installs a per-workload random-stream resolver: draws
// that decide one workload's trajectory — the launch-success roll, the
// on-demand AZ pick, the interruption TTL — come from the stream the
// resolver returns for the instance/request tag instead of the
// provider-wide sequential "cloud" stream. A workload's draw sequence
// then depends only on its own simulated history, which is what lets a
// sharded fleet run produce bit-identical trajectories at any shard
// count, and lets a default-mode run reproduce them. A nil resolver (or
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

// scheduleBatchedFulfill queues req's placement p.fulfillDelay from
// now, batched with every other placement landing on that instant. The
// bucket's engine event is scheduled when the bucket is created, so
// event sequence numbers — and therefore same-instant ordering — match
// the individually-scheduled path exactly.
//
// The callback is the single prebound p.fulfillCb — fireFulfills
// recovers the bucket key from the engine clock at fire time — and
// fired buckets' backing arrays are recycled through bucketPool, so a
// relaunch wave costs map traffic only, no per-bucket closure, struct,
// or slice allocation. (Not hotpath-annotated: each new bucket
// legitimately allocates one engine Event.)
func (p *Provider) scheduleBatchedFulfill(req *SpotRequest) {
	at := p.eng.Now().Add(p.fulfillDelay)
	if p.pastEventHorizon(at) {
		return // the run stops before the placement could land
	}
	atNs := at.UnixNano()
	b, live := p.fulfillAt[atNs]
	if !live {
		if n := len(p.bucketPool); n > 0 {
			b = p.bucketPool[n-1]
			p.bucketPool = p.bucketPool[:n-1]
		}
		p.eng.ScheduleAfter(p.fulfillDelay, "spot-fulfill", p.fulfillCb)
	}
	p.fulfillAt[atNs] = append(b, req)
}

// fireFulfills runs one bucket's placements in add order — the order
// individually-scheduled fulfill events would have fired in. The bucket
// due now is exactly the one keyed by the engine clock: each key gets
// one event, scheduled at bucket creation for that instant.
func (p *Provider) fireFulfills() {
	atNs := p.eng.Now().UnixNano()
	b := p.fulfillAt[atNs]
	delete(p.fulfillAt, atNs)
	p.batchFired++
	for i, req := range b {
		b[i] = nil // no settled-request retention via the pooled array
		if req.State != RequestOpen {
			continue
		}
		p.fulfill(req)
	}
	if b != nil {
		p.bucketPool = append(p.bucketPool, b[:0])
	}
}

// BatchEventsFired reports how many batched-fulfill bucket events have
// executed. The count is engine-shape bookkeeping (how placements were
// coalesced), not simulation outcome; the sharded fleet driver
// subtracts it when building its shard-count-invariant event total.
func (p *Provider) BatchEventsFired() uint64 { return p.batchFired }

// crossKey identifies one price-crossing question: will the walk for
// this (type, AZ) cross above this bid? Every instance launched with
// the same bid in the same AZ shares the answer.
type crossKey struct {
	t   catalog.InstanceType
	az  catalog.AZ
	bid float64
}

// crossState is the memoized answer. Exactly one of the two shapes is
// stored: a found crossing (hasCross, crossNs), or a scanned window
// [.., scannedNs) known to contain no crossing.
type crossState struct {
	hasCross  bool
	crossNs   int64
	scannedNs int64
}

// cachedPriceCross serves nextPriceCross from the fleet-mode crossing
// cache. Scan starts only move forward in simulated time, so a cached
// crossing at/after `from` is still the *first* crossing after `from`
// (the earlier scan that found it covered every step in between), and
// a cached no-crossing window lets a rescan skip the covered prefix.
// The price walk is pure, so the memoized answer is exact and the
// scheduled reclaim instants are bit-identical to the default path's.
func (p *Provider) cachedPriceCross(inst *Instance, series market.PriceSeries, from, end time.Time) (time.Time, bool) {
	key := crossKey{t: inst.Type, az: inst.AZ, bid: inst.BidUSD}
	c := p.crossCache[key]
	fromNs, endNs := from.UnixNano(), end.UnixNano()
	if c.hasCross && c.crossNs >= fromNs {
		if c.crossNs < endNs {
			return time.Unix(0, c.crossNs).UTC(), true
		}
		return time.Time{}, false
	}
	scan := from
	if !c.hasCross && c.scannedNs > fromNs {
		// Resume at the first grid step at/after the covered window;
		// every earlier step was already scanned crossing-free.
		covered := time.Unix(0, c.scannedNs).UTC()
		scan = covered.Truncate(market.PriceStep)
		if scan.Before(covered) {
			scan = scan.Add(market.PriceStep)
		}
	}
	for at := scan; at.Before(end); at = at.Add(market.PriceStep) {
		if series.At(at) > inst.BidUSD {
			p.crossCache[key] = crossState{hasCross: true, crossNs: at.UnixNano()}
			return at, true
		}
	}
	p.crossCache[key] = crossState{scannedNs: endNs}
	return time.Time{}, false
}

// evaluateOpenIndexed is the fleet-mode retry sweep. The open index is
// append-ordered, and request IDs are fixed-width and monotonic, so
// index order equals the sorted-ID order of the default sweep. Settled
// entries are compacted out in the same pass.
//
//spotverse:hotpath
func (p *Provider) evaluateOpenIndexed() int {
	live := p.open[:0]
	n := 0
	for _, req := range p.open {
		if req.State != RequestOpen {
			continue
		}
		live = append(live, req)
		//spotverse:allow hotpath evaluate builds its fulfill closure only after a successful launch roll; failed-roll sweep iterations return before it
		p.evaluate(req)
		n++
	}
	for i := len(live); i < len(p.open); i++ {
		p.open[i] = nil
	}
	p.open = live
	return n
}
