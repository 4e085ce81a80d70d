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
// index, and an instance is released once OnTerminate subscribers have
// seen its final cost.
package cloud

import (
	"errors"
	"fmt"
	"sort"
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

// InstanceID identifies an instance.
type InstanceID string

// Instance is a running or terminated virtual machine.
type Instance struct {
	ID        InstanceID
	Type      catalog.InstanceType
	Region    catalog.Region
	AZ        catalog.AZ
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
	termEv        *simclock.Event
	priceNoticeEv *simclock.Event
	priceTermEv   *simclock.Event
}

// SpotRequest is a pending or fulfilled request for spot capacity.
type SpotRequest struct {
	Type     catalog.InstanceType
	Region   catalog.Region
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
	seq int
	// open is the open-request index in creation order. The retry sweep
	// walks it and compacts settled entries out.
	open []*SpotRequest

	// fulfillAt batches the placements landing on one instant behind a
	// single engine event (fulfillCb); fired buckets' arrays are recycled
	// through bucketPool. batchFired counts the bucket events.
	fulfillAt  map[int64][]*SpotRequest
	fulfillCb  func()
	bucketPool [][]*SpotRequest
	batchFired uint64
	// crossCache memoizes price-crossing scans per (type, AZ, bid).
	crossCache map[crossKey]crossState
	// eventHorizonNs, when set (SetEventHorizon), is the instant the
	// caller stops the run at; events due at or after it are never
	// scheduled.
	eventHorizonNs int64

	// tagRand, when set (SetWorkloadRand), resolves a workload tag to
	// that workload's private random stream; nil falls back to the
	// provider-wide sequential stream.
	tagRand func(tag string) *simclock.SplitMix64

	// idBuf is the reused scratch for instance ID formatting.
	idBuf []byte

	noticeSubs []NoticeFunc
	launchSubs []LaunchFunc
	termSubs   []TerminateFunc

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
		fulfillAt:    make(map[int64][]*SpotRequest),
		crossCache:   make(map[crossKey]crossState),
		fulfillDelay: 45 * time.Second,
	}
	p.fulfillCb = p.fireFulfills
	return p
}

// Engine exposes the simulation engine driving this provider.
func (p *Provider) Engine() *simclock.Engine { return p.eng }

// Market exposes the market model backing prices and hazards.
func (p *Provider) Market() *market.Model { return p.mkt }

// OnInterruptionNotice registers a notice subscriber (EventBridge rule).
func (p *Provider) OnInterruptionNotice(fn NoticeFunc) { p.noticeSubs = append(p.noticeSubs, fn) }

// OnLaunch registers a launch subscriber.
func (p *Provider) OnLaunch(fn LaunchFunc) { p.launchSubs = append(p.launchSubs, fn) }

// OnTerminate registers a termination subscriber.
func (p *Provider) OnTerminate(fn TerminateFunc) { p.termSubs = append(p.termSubs, fn) }

func (p *Provider) nextInstanceID() InstanceID {
	p.seq++
	p.idBuf = appendSeqID(p.idBuf[:0], "i", p.seq)
	return InstanceID(p.idBuf)
}

// appendSeqID appends "<prefix>-<seq>" with the sequence number
// zero-padded to at least six digits — the byte sequence the original
// fmt "%06d" formatting rendered. IDs are minted on the fleet hot loop
// (one per launch), so formatting goes through a reused scratch buffer
// instead of fmt.
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

// RunOnDemand launches an on-demand instance immediately.
func (p *Provider) RunOnDemand(t catalog.InstanceType, r catalog.Region, tag string) (*Instance, error) {
	if !p.mkt.Catalog().Offered(t, r) {
		return nil, fmt.Errorf("cloud: %s not offered in %s", t, r)
	}
	zones := p.mkt.Catalog().Zones(r)
	var az catalog.AZ
	if g := p.tagStream(tag); g != nil {
		az = zones[g.Intn(len(zones))]
	} else {
		az = zones[p.rng.Intn(len(zones))]
	}
	inst := &Instance{
		ID:         p.nextInstanceID(),
		Type:       t,
		Region:     r,
		AZ:         az,
		Lifecycle:  LifecycleOnDemand,
		State:      StateRunning,
		LaunchedAt: p.eng.Now(),
		Tag:        tag,
	}
	p.instances[inst.ID] = inst
	p.notifyLaunch(inst)
	return inst, nil
}

// RequestSpot files a spot request for t in r. The request is evaluated
// immediately: with the market's launch-success probability it is
// fulfilled after a short placement delay; otherwise it stays open until
// a later EvaluateOpenRequests sweep.
func (p *Provider) RequestSpot(t catalog.InstanceType, r catalog.Region, tag string) (*SpotRequest, error) {
	return p.RequestSpotWithBid(t, r, tag, 0)
}

// RequestSpotWithBid files a spot request with an explicit max price.
// maxPriceUSD zero bids the region's on-demand price (the paper's
// policy); a fulfilled instance is reclaimed with ReasonPrice when the
// spot price later crosses its bid.
func (p *Provider) RequestSpotWithBid(t catalog.InstanceType, r catalog.Region, tag string, maxPriceUSD float64) (*SpotRequest, error) {
	if !p.mkt.Catalog().Offered(t, r) {
		return nil, fmt.Errorf("cloud: %s not offered in %s", t, r)
	}
	if maxPriceUSD < 0 {
		return nil, fmt.Errorf("cloud: negative bid %v", maxPriceUSD)
	}
	if maxPriceUSD == 0 {
		od, err := p.mkt.Catalog().OnDemandPrice(t, r)
		if err != nil {
			return nil, err
		}
		maxPriceUSD = od
	}
	req := &SpotRequest{
		Type:        t,
		Region:      r,
		State:       RequestOpen,
		Created:     p.eng.Now(),
		Tag:         tag,
		MaxPriceUSD: maxPriceUSD,
	}
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
	prob, err := p.mkt.LaunchSuccessProbability(req.Type, req.Region, p.eng.Now())
	if err != nil {
		return
	}
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
	price, az, err := p.mkt.RegionSpotPrice(req.Type, req.Region, p.eng.Now())
	if err != nil {
		return
	}
	if req.MaxPriceUSD > 0 && price > req.MaxPriceUSD {
		// Spot price already above the bid: the request stays open until
		// a sweep finds the price back under it.
		return
	}
	inst := &Instance{
		ID:         p.nextInstanceID(),
		Type:       req.Type,
		Region:     req.Region,
		AZ:         az,
		Lifecycle:  LifecycleSpot,
		State:      StateRunning,
		LaunchedAt: p.eng.Now(),
		Tag:        req.Tag,
		BidUSD:     req.MaxPriceUSD,
	}
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
	// One walk resolution for the whole scan (up to 240 steps) instead
	// of a map lookup per step; the samples are the same SpotPrice ones.
	series, err := p.mkt.PriceSeries(inst.Type, inst.AZ)
	if err != nil {
		return
	}
	at, ok := p.nextPriceCross(inst, series, now)
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
	hazard, err := p.mkt.SeasonalHazardPerHour(inst.Type, inst.Region, p.eng.Now())
	if err != nil || hazard <= 0 {
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
	inst.termEv = p.eng.ScheduleAfter(ttl, "spot-reclaim", func() {
		if inst.State != StateRunning {
			return
		}
		inst.Reason = ReasonCapacity
		p.finalize(inst, true)
	})
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
	if inst.termEv != nil {
		inst.termEv.Cancel()
	}
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
}

// costBetween integrates the instance's hourly price over [from, to],
// sampling spot prices at market price-step boundaries (per-second
// billing under a piecewise-constant price).
func (p *Provider) costBetween(inst *Instance, from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	if inst.Lifecycle == LifecycleOnDemand {
		od, err := p.mkt.Catalog().OnDemandPrice(inst.Type, inst.Region)
		if err != nil {
			return 0
		}
		return od * to.Sub(from).Hours()
	}
	series, err := p.mkt.PriceSeries(inst.Type, inst.AZ)
	if err != nil {
		return 0
	}
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

// EvaluateOpenRequests retries placement for every open request, in
// creation order; the Controller drives this from its 15-minute
// CloudWatch sweep. It returns how many requests were (re)attempted.
// Settled entries are compacted out of the index in the same pass.
//
//spotverse:hotpath
func (p *Provider) EvaluateOpenRequests() int {
	live := p.open[:0]
	n := 0
	for _, req := range p.open {
		if req.State != RequestOpen {
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

// OpenRequests returns the currently open spot requests, oldest first.
// The controller rescans them after a crash-restart.
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
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (p *Provider) notifyLaunch(inst *Instance) {
	for _, fn := range p.launchSubs {
		fn(inst)
	}
}
