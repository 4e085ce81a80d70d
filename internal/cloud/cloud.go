// Package cloud simulates an EC2-like IaaS provider on the simulation
// clock: on-demand instances, spot requests with an open/active
// lifecycle, spot interruptions with two-minute notices, and per-second
// billing against the market's price processes.
//
// The provider is intentionally shaped like the narrow slice of the EC2
// API the SpotVerse controller uses: RunOnDemand, RequestSpot,
// EvaluateOpenRequests (the 15-minute retry sweep), Terminate, and
// interruption-notice subscription (EventBridge's role). Its bookkeeping
// is bounded by what is live: open requests sit in one creation-ordered
// index, an instance is released once OnTerminate subscribers have seen
// its final cost, and released instance and request records are reused
// for later launches and requests.
package cloud

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// NoticeWindow is the warning AWS gives before reclaiming a spot instance.
const NoticeWindow = 2 * time.Minute

// Lifecycle distinguishes how an instance is paid for.
type Lifecycle int

// Lifecycle values.
const (
	LifecycleSpot Lifecycle = iota + 1
	LifecycleOnDemand
)

// String implements fmt.Stringer.
func (l Lifecycle) String() string {
	switch l {
	case LifecycleSpot:
		return "spot"
	case LifecycleOnDemand:
		return "on-demand"
	default:
		return "unknown"
	}
}

// InstanceState tracks an instance through its life.
type InstanceState int

// Instance states.
const (
	StateRunning InstanceState = iota + 1
	StateTerminated
)

// RequestState tracks a spot request.
type RequestState int

// Spot request states, mirroring EC2's request-status vocabulary.
const (
	RequestOpen RequestState = iota + 1
	RequestActive
)

// InterruptReason distinguishes why the provider reclaimed an instance
// (Section 2.1.2 of the paper: capacity needs, or the spot price rising
// above the user's bid).
type InterruptReason int

// Interruption reasons.
const (
	ReasonNone InterruptReason = iota
	ReasonCapacity
	ReasonPrice
)

// String implements fmt.Stringer.
func (r InterruptReason) String() string {
	switch r {
	case ReasonCapacity:
		return "capacity"
	case ReasonPrice:
		return "price"
	default:
		return "none"
	}
}

// InstanceID identifies an instance by its sequence number; zero means
// none. It renders as "i-" and the number zero-padded to six digits,
// only where something prints it.
type InstanceID int

// String renders the ID, "" for the zero ID.
func (id InstanceID) String() string {
	if id == 0 {
		return ""
	}
	var buf [24]byte
	return string(appendSeqID(buf[:0], "i", int(id)))
}

// Compare orders two IDs as their rendered strings sort: by number up to
// six digits, and from seq 1,000,000 on by digit string, so
// "i-1000000" sorts before "i-999999".
func (id InstanceID) Compare(other InstanceID) int {
	if id < 1_000_000 && other < 1_000_000 {
		return cmp.Compare(id, other)
	}
	var a, b [24]byte
	return bytes.Compare(appendSeqID(a[:0], "i", int(id)), appendSeqID(b[:0], "i", int(other)))
}

// Instance is a running or terminated virtual machine.
//
// The provider owns the record and reuses it once the instance is
// released: a record is valid until the OnTerminate callbacks for its
// termination return. A caller that needs the instance after that copies
// the fields it wants inside the callback.
type Instance struct {
	ID InstanceID
	// offer is the (type, region) market the instance runs in, and az
	// the index of its zone there.
	offer     *market.Offer
	az        int
	Lifecycle Lifecycle
	State     InstanceState
	// LaunchedAt and TerminatedAt bound the billed lifetime.
	LaunchedAt   time.Time
	TerminatedAt time.Time
	// Interrupted reports whether termination was provider-initiated;
	// Reason says why (capacity reclaim or price above bid).
	Interrupted bool
	Reason      InterruptReason
	// BidUSD is the spot request's max price (on-demand by default, the
	// paper's bidding policy).
	BidUSD float64
	// CostUSD is the accrued instance cost, final once terminated.
	CostUSD float64
	// Tag is an opaque caller label (the workload the instance serves).
	Tag string

	noticeEv      *simclock.Event
	priceNoticeEv *simclock.Event
	priceTermEv   *simclock.Event
	// termEv is the capacity reclaim and reclaimFn its callback. Both are
	// made with the record and kept across reuse: every spot launch
	// re-arms the one event, and finalize cancels it, so an entry queued
	// for an earlier tenant stays dead.
	termEv    *simclock.Event
	reclaimFn func()
}

// Region reports the region the instance runs in.
func (inst *Instance) Region() catalog.Region { return inst.offer.Region() }

// AZ reports the availability zone the instance runs in.
func (inst *Instance) AZ() catalog.AZ { return inst.offer.Zone(inst.az) }

// Offer reports the (type, region) market the instance runs in.
func (inst *Instance) Offer() *market.Offer { return inst.offer }

// SpotRequest is a pending or fulfilled request for spot capacity.
//
// The provider owns the record and reuses it once the request has
// settled: a request record is valid until it settles (leaves
// RequestOpen). Instance then names the launched instance.
type SpotRequest struct {
	// offer is the (type, region) market the request was filed for.
	offer    *market.Offer
	State    RequestState
	Created  time.Time
	Attempts int
	// Instance is set once the request becomes active.
	Instance InstanceID
	// Tag is propagated to the launched instance.
	Tag string
	// MaxPriceUSD is the bid; zero means "bid the on-demand price"
	// (Section 5.1.2: research shows spot pricing is not a significant
	// factor, so the paper bids on-demand and pays the actual spot
	// price).
	MaxPriceUSD float64

	// buckets counts the fulfill-bucket entries holding the request (a
	// sweep can re-roll a request a bucket already holds), and compacted
	// reports that the open-request sweep has dropped it from the open
	// index. A settled request is released once compacted with no bucket
	// entry left.
	buckets   int32
	compacted bool
}

// Errors returned by the provider.
var (
	ErrNotFound   = errors.New("cloud: not found")
	ErrNotRunning = errors.New("cloud: instance not running")
)

// NoticeFunc receives interruption notices NoticeWindow before reclaim.
type NoticeFunc func(inst *Instance)

// LaunchFunc receives instances as they enter StateRunning.
type LaunchFunc func(inst *Instance)

// TerminateFunc receives instances as they terminate, with the reason.
type TerminateFunc func(inst *Instance, interrupted bool)

// Provider is the simulated IaaS control plane. It is single-threaded and
// must only be driven from inside the simulation engine's event loop.
type Provider struct {
	eng *simclock.Engine
	mkt *market.Model
	rng *simclock.RNG

	// instances holds the running instances (and, during its OnTerminate
	// callbacks, the one terminating): records are released as they
	// settle, so retention follows what is running, not run history.
	instances map[InstanceID]*Instance
	// seq numbers requests and instances from one sequence, so instance
	// IDs are ordered by when their work was filed.
	seq InstanceID
	// open is the open-request index in creation order. The retry sweep
	// walks it and compacts settled entries out.
	open []*SpotRequest

	// fulfillAt batches the placements landing on one instant behind a
	// single engine event (fulfillCb); fired buckets are recycled, with
	// their event and array, through bucketPool. batchFired counts the
	// bucket events.
	fulfillAt  map[int64]*fulfillBucket
	fulfillCb  func()
	bucketPool []*fulfillBucket
	batchFired uint64
	// crossCache memoizes price-crossing scans per (market, AZ, bid).
	crossCache map[crossKey]crossState
	// eventHorizonNs, when set (SetEventHorizon), is the instant the
	// caller stops the run at; events due at or after it are never
	// scheduled.
	eventHorizonNs int64

	// tagRand, when set (SetWorkloadRand), resolves a workload tag to
	// that workload's private random stream; nil falls back to the
	// provider-wide sequential stream.
	tagRand func(tag string) *simclock.SplitMix64

	noticeSubs []NoticeFunc
	launchSubs []LaunchFunc
	termSubs   []TerminateFunc

	// freeInsts and freeReqs hold released records for reuse, so a
	// relaunch allocates no record, reclaim event or callback once the
	// provider is warm.
	freeInsts []*Instance
	freeReqs  []*SpotRequest

	// fulfillDelay is how long a successful spot placement takes.
	fulfillDelay time.Duration
}

// New returns a provider over the market, drawing randomness from the
// given seed ("cloud" stream).
func New(eng *simclock.Engine, mkt *market.Model, seed int64) *Provider {
	p := &Provider{
		eng:          eng,
		mkt:          mkt,
		rng:          simclock.Stream(seed, "cloud"),
		instances:    make(map[InstanceID]*Instance),
		fulfillAt:    make(map[int64]*fulfillBucket),
		crossCache:   make(map[crossKey]crossState),
		fulfillDelay: 45 * time.Second,
	}
	p.fulfillCb = p.fireFulfills
	return p
}

// Reset returns the provider to the state New(eng, mkt, seed) builds
// over its own engine, which the caller must reset first
// (simclock.Engine.Reset). The record free lists, the pooled fulfill
// buckets and the storage of the instance, bucket and price-crossing
// maps are kept, so a reused provider launches without allocating once
// warm. Everything that decides what happens next starts over: the
// sequence that numbers IDs, the open-request index, the "cloud"
// stream, the price-crossing memo, the event horizon, the per-workload
// streams and the subscribers. Every record handed out before the reset
// is invalid after it. Requests in the open index go back to the free
// list; running instances and pending fulfill buckets are dropped, since
// their engine events went with the engine's queue.
func (p *Provider) Reset(mkt *market.Model, seed int64) {
	p.mkt = mkt
	p.rng.ResetStream(seed, "cloud")
	for _, req := range p.open {
		if req.buckets == 0 {
			p.freeReqs = append(p.freeReqs, req)
		}
	}
	p.open = truncated(p.open)
	clear(p.instances)
	clear(p.fulfillAt)
	clear(p.crossCache)
	p.seq, p.batchFired, p.eventHorizonNs, p.tagRand = 0, 0, 0, nil
	p.noticeSubs = truncated(p.noticeSubs)
	p.launchSubs = truncated(p.launchSubs)
	p.termSubs = truncated(p.termSubs)
}

// truncated empties s, keeping its array.
func truncated[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// Market exposes the market model backing prices and hazards.
func (p *Provider) Market() *market.Model { return p.mkt }

// OnInterruptionNotice registers a notice subscriber (EventBridge rule).
func (p *Provider) OnInterruptionNotice(fn NoticeFunc) { p.noticeSubs = append(p.noticeSubs, fn) }

// OnLaunch registers a launch subscriber.
func (p *Provider) OnLaunch(fn LaunchFunc) { p.launchSubs = append(p.launchSubs, fn) }

// OnTerminate registers a termination subscriber. The instance record
// is valid until the subscribers return; then the provider may reuse it.
func (p *Provider) OnTerminate(fn TerminateFunc) { p.termSubs = append(p.termSubs, fn) }

func (p *Provider) nextInstanceID() InstanceID {
	p.seq++
	return p.seq
}

// appendSeqID appends "<prefix>-<seq>" with the sequence number
// zero-padded to at least six digits — the byte sequence the original
// fmt "%06d" formatting rendered. Comparing IDs renders two of them, so
// formatting goes through the caller's buffer instead of fmt.
//
//spotverse:hotpath
func appendSeqID(dst []byte, prefix string, seq int) []byte {
	dst = append(dst, prefix...)
	dst = append(dst, '-')
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + seq%10)
		seq /= 10
		if seq == 0 {
			break
		}
	}
	for len(buf)-i < 6 {
		i--
		buf[i] = '0'
	}
	return append(dst, buf[i:]...)
}

// instanceRecord allocates an instance record and its reclaim event
// together: one 248 B object (256 B size class) instead of a 176 B and
// a 72 B one.
type instanceRecord struct {
	inst Instance
	ev   simclock.Event
}

// newInstance returns a record holding v, reusing a released one when
// there is one. The record keeps its own reclaim event and callback.
func (p *Provider) newInstance(v Instance) *Instance {
	var inst *Instance
	if n := len(p.freeInsts); n > 0 {
		inst = p.freeInsts[n-1]
		p.freeInsts = p.freeInsts[:n-1]
	} else {
		rec := &instanceRecord{}
		inst = &rec.inst
		inst.termEv = &rec.ev
		inst.reclaimFn = func() { p.reclaim(inst) }
	}
	v.termEv, v.reclaimFn = inst.termEv, inst.reclaimFn
	*inst = v
	return inst
}

// newRequest returns a record holding v, reusing a released one when
// there is one.
func (p *Provider) newRequest(v SpotRequest) *SpotRequest {
	var req *SpotRequest
	if n := len(p.freeReqs); n > 0 {
		req = p.freeReqs[n-1]
		p.freeReqs = p.freeReqs[:n-1]
	} else {
		req = new(SpotRequest)
	}
	*req = v
	return req
}

// RunOnDemand launches an on-demand instance immediately. The record is
// valid until the OnTerminate callbacks for its termination return.
func (p *Provider) RunOnDemand(t catalog.InstanceType, r catalog.Region, tag string) (*Instance, error) {
	o, ok := p.mkt.Offer(t, r)
	if !ok {
		return nil, fmt.Errorf("cloud: %s not offered in %s", t, r)
	}
	var az int
	if g := p.tagStream(tag); g != nil {
		az = g.Intn(o.NumZones())
	} else {
		az = p.rng.Intn(o.NumZones())
	}
	inst := p.newInstance(Instance{
		ID:         p.nextInstanceID(),
		offer:      o,
		az:         az,
		Lifecycle:  LifecycleOnDemand,
		State:      StateRunning,
		LaunchedAt: p.eng.Now(),
		Tag:        tag,
	})
	p.instances[inst.ID] = inst
	p.notifyLaunch(inst)
	return inst, nil
}

// RequestSpot files a spot request for t in r. The request is evaluated
// immediately: with the market's launch-success probability it is
// fulfilled after a short placement delay; otherwise it stays open until
// a later EvaluateOpenRequests sweep. The request record is valid until
// the request settles.
func (p *Provider) RequestSpot(t catalog.InstanceType, r catalog.Region, tag string) (*SpotRequest, error) {
	return p.RequestSpotWithBid(t, r, tag, 0)
}

// RequestSpotWithBid files a spot request with an explicit max price.
// maxPriceUSD zero bids the region's on-demand price (the paper's
// policy); a fulfilled instance is reclaimed with ReasonPrice when the
// spot price later crosses its bid. The request record is valid until
// the request settles.
func (p *Provider) RequestSpotWithBid(t catalog.InstanceType, r catalog.Region, tag string, maxPriceUSD float64) (*SpotRequest, error) {
	o, ok := p.mkt.Offer(t, r)
	if !ok {
		return nil, fmt.Errorf("cloud: %s not offered in %s", t, r)
	}
	if maxPriceUSD < 0 {
		return nil, fmt.Errorf("cloud: negative bid %v", maxPriceUSD)
	}
	if maxPriceUSD == 0 {
		maxPriceUSD = o.OnDemandPrice()
	}
	req := p.newRequest(SpotRequest{
		offer:       o,
		State:       RequestOpen,
		Created:     p.eng.Now(),
		Tag:         tag,
		MaxPriceUSD: maxPriceUSD,
	})
	// The request advances the shared sequence, which the instance IDs in
	// pinned outputs depend on; no request ID is minted, since nothing
	// addresses a request by ID.
	p.seq++
	p.open = append(p.open, req)
	p.evaluate(req)
	return req, nil
}

// evaluate makes one placement attempt for an open request.
func (p *Provider) evaluate(req *SpotRequest) {
	if req.State != RequestOpen {
		return
	}
	req.Attempts++
	prob := p.mkt.LaunchSuccessProbabilityOf(req.offer, p.eng.Now())
	if g := p.tagStream(req.Tag); g != nil {
		if !g.Bool(prob) {
			return // stays open; the 15-minute sweep will retry
		}
	} else if !p.rng.Bool(prob) {
		return // stays open; the 15-minute sweep will retry
	}
	p.scheduleBatchedFulfill(req)
}

// tagStream resolves a workload tag to its private random stream, or
// nil when the provider draws from its sequential stream.
func (p *Provider) tagStream(tag string) *simclock.SplitMix64 {
	if p.tagRand == nil {
		return nil
	}
	return p.tagRand(tag)
}

func (p *Provider) fulfill(req *SpotRequest) {
	price, az := req.offer.SpotPrice(p.eng.Now())
	if req.MaxPriceUSD > 0 && price > req.MaxPriceUSD {
		// Spot price already above the bid: the request stays open until
		// a sweep finds the price back under it.
		return
	}
	inst := p.newInstance(Instance{
		ID:         p.nextInstanceID(),
		offer:      req.offer,
		az:         az,
		Lifecycle:  LifecycleSpot,
		State:      StateRunning,
		LaunchedAt: p.eng.Now(),
		Tag:        req.Tag,
		BidUSD:     req.MaxPriceUSD,
	})
	p.instances[inst.ID] = inst
	req.State = RequestActive
	req.Instance = inst.ID
	p.scheduleInterruption(inst)
	p.schedulePriceInterruption(inst)
	p.notifyLaunch(inst)
}

// schedulePriceInterruption scans the deterministic price walk forward
// and, if the spot price will cross the instance's bid, schedules a
// price-based reclaim (with the usual two-minute notice) at that step.
func (p *Provider) schedulePriceInterruption(inst *Instance) {
	if inst.BidUSD <= 0 {
		return
	}
	now := p.eng.Now()
	at, ok := p.nextPriceCross(inst, now)
	if !ok {
		return
	}
	noticeAt := at.Add(-NoticeWindow)
	if noticeAt.Before(now) {
		noticeAt = now
	}
	// With no notice subscriber the notice would fire into a void, so
	// only the reclaim is scheduled.
	if len(p.noticeSubs) > 0 {
		if p.pastEventHorizon(noticeAt) {
			return
		}
		ev, err := p.eng.ScheduleAt(noticeAt, "spot-price-notice", func() {
			if inst.State != StateRunning {
				return
			}
			for _, fn := range p.noticeSubs {
				fn(inst)
			}
		})
		if err != nil {
			return
		}
		inst.priceNoticeEv = ev
	}
	if p.pastEventHorizon(at) {
		return
	}
	termEv, err := p.eng.ScheduleAt(at, "spot-price-reclaim", func() {
		if inst.State != StateRunning {
			return
		}
		inst.Reason = ReasonPrice
		p.finalize(inst, true)
	})
	if err != nil {
		if inst.priceNoticeEv != nil {
			inst.priceNoticeEv.Cancel()
			inst.priceNoticeEv = nil
		}
		return
	}
	inst.priceTermEv = termEv
}

// priceScanHorizon bounds how far ahead the price-crossing scan looks;
// beyond it a crossing would outlive any experiment horizon in use.
const priceScanHorizon = 60 * 24 * time.Hour

// scheduleInterruption draws the instance's reclaim time from the
// market's (optionally seasonal) hazard at launch and schedules
// notice + termination.
func (p *Provider) scheduleInterruption(inst *Instance) {
	hazard := p.mkt.SeasonalHazardPerHourOf(inst.offer, p.eng.Now())
	if hazard <= 0 {
		return
	}
	var hours float64
	if g := p.tagStream(inst.Tag); g != nil {
		hours = g.Exp(1 / hazard)
	} else {
		hours = p.rng.Exp(1 / hazard)
	}
	ttl := time.Duration(hours * float64(time.Hour))
	if ttl > 365*24*time.Hour {
		return // effectively never in any experiment horizon
	}
	noticeAt := ttl - NoticeWindow
	if noticeAt < 0 {
		noticeAt = 0
	}
	now := p.eng.Now()
	if len(p.noticeSubs) == 0 {
		// With no notice subscriber the notice would fire into a void:
		// schedule the reclaim alone.
		if p.pastEventHorizon(now.Add(ttl)) {
			return
		}
	} else {
		if p.pastEventHorizon(now.Add(noticeAt)) {
			return // neither notice nor reclaim can fire before the hard stop
		}
		inst.noticeEv = p.eng.ScheduleAfter(noticeAt, "spot-notice", func() {
			if inst.State != StateRunning {
				return
			}
			for _, fn := range p.noticeSubs {
				fn(inst)
			}
		})
	}
	p.eng.ArmAfter(inst.termEv, ttl, "spot-reclaim", inst.reclaimFn)
}

// reclaim is the capacity-reclaim callback, bound to its record once.
func (p *Provider) reclaim(inst *Instance) {
	if inst.State != StateRunning {
		return
	}
	inst.Reason = ReasonCapacity
	p.finalize(inst, true)
}

// Terminate ends an instance at the caller's request.
func (p *Provider) Terminate(id InstanceID) error {
	inst, ok := p.instances[id]
	if !ok {
		return fmt.Errorf("terminate %s: %w", id, ErrNotFound)
	}
	if inst.State != StateRunning {
		return fmt.Errorf("terminate %s: %w", id, ErrNotRunning)
	}
	p.finalize(inst, false)
	return nil
}

func (p *Provider) finalize(inst *Instance, interrupted bool) {
	inst.State = StateTerminated
	inst.TerminatedAt = p.eng.Now()
	inst.Interrupted = interrupted
	if inst.noticeEv != nil {
		inst.noticeEv.Cancel()
	}
	inst.termEv.Cancel()
	if inst.priceNoticeEv != nil {
		inst.priceNoticeEv.Cancel()
	}
	if inst.priceTermEv != nil {
		inst.priceTermEv.Cancel()
	}
	inst.CostUSD = p.costBetween(inst, inst.LaunchedAt, inst.TerminatedAt)
	for _, fn := range p.termSubs {
		fn(inst, interrupted)
	}
	// Subscribers have seen the final cost; release the record.
	delete(p.instances, inst.ID)
	p.freeInsts = append(p.freeInsts, inst)
}

// costBetween integrates the instance's hourly price over [from, to],
// sampling spot prices at market price-step boundaries (per-second
// billing under a piecewise-constant price).
func (p *Provider) costBetween(inst *Instance, from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	if inst.Lifecycle == LifecycleOnDemand {
		return inst.offer.OnDemandPrice() * to.Sub(from).Hours()
	}
	series := inst.offer.PriceSeries(inst.az)
	var cost float64
	toNs := to.UnixNano()
	for seg := from.UnixNano(); seg < toNs; {
		end := min(nextPriceStep(seg), toNs)
		cost += series.AtNs(seg) * time.Duration(end-seg).Hours()
		seg = end
	}
	return cost
}

// nextPriceStep returns the first price-step boundary strictly after the
// instant ns. Boundaries are multiples of market.PriceStep in Unix
// nanoseconds. That is the grid time.Time.Truncate steps on, which
// counts from the zero time instead: the zero time lies a whole number
// of days before the Unix epoch, and a day is a whole number of price
// steps. The remainder floors only because simulated instants are
// positive.
func nextPriceStep(ns int64) int64 {
	const step = int64(market.PriceStep)
	return ns - ns%step + step
}

// EvaluateOpenRequests retries placement for every open request, in
// creation order; the Controller drives this from its 15-minute
// CloudWatch sweep. It returns how many requests were (re)attempted.
// Settled entries are compacted out of the index in the same pass, and
// released unless a fulfill bucket still holds them.
//
//spotverse:hotpath
func (p *Provider) EvaluateOpenRequests() int {
	live := p.open[:0]
	n := 0
	for _, req := range p.open {
		if req.State != RequestOpen {
			req.compacted = true
			p.releaseRequest(req)
			continue
		}
		live = append(live, req)
		//spotverse:allow hotpath evaluate schedules a fulfill only after a successful launch roll; failed-roll sweep iterations return before it
		p.evaluate(req)
		n++
	}
	for i := len(live); i < len(p.open); i++ {
		p.open[i] = nil
	}
	p.open = live
	return n
}

// releaseRequest frees a settled request's record once it is compacted
// out of the open index and no fulfill bucket holds it.
func (p *Provider) releaseRequest(req *SpotRequest) {
	if req.compacted && req.buckets == 0 {
		p.freeReqs = append(p.freeReqs, req)
	}
}

// OpenRequests returns the currently open spot requests, oldest first.
// The controller rescans them after a crash-restart. Each record is
// valid until its request settles.
func (p *Provider) OpenRequests() []*SpotRequest {
	var out []*SpotRequest
	for _, req := range p.open {
		if req.State == RequestOpen {
			out = append(out, req)
		}
	}
	return out
}

// Instance returns a running instance's record by ID; terminated
// instances have been released and report ErrNotFound.
func (p *Provider) Instance(id InstanceID) (*Instance, error) {
	inst, ok := p.instances[id]
	if !ok {
		return nil, fmt.Errorf("instance %s: %w", id, ErrNotFound)
	}
	return inst, nil
}

// RunningInstances returns all running instances ordered by ID.
func (p *Provider) RunningInstances() []*Instance {
	var out []*Instance
	for _, inst := range p.instances {
		if inst.State == StateRunning {
			out = append(out, inst)
		}
	}
	slices.SortFunc(out, func(a, b *Instance) int { return a.ID.Compare(b.ID) })
	return out
}

func (p *Provider) notifyLaunch(inst *Instance) {
	for _, fn := range p.launchSubs {
		fn(inst)
	}
}
