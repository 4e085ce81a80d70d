package market

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
)

// This file is the immutable, concurrency-safe half of the market
// split: a Snapshot owns every deterministic series for one (catalog,
// seed, start) triple — price walks per (type, AZ), interruption-
// frequency and placement-score walks per (type, region), and the
// cheapest-AZ min/prefix series per (type, region) — and can back any
// number of Models (one per Env) at once.
//
// Concurrency contract:
//
//   - Every series is an append-only prefix, grown in whole segments of
//     segSize samples and published by an atomic pointer swap, so the
//     read path is lock-free: one atomic load and an index. Published
//     values are never rewritten.
//   - A short per-series mutex guards growth only — the frontier RNG
//     and publication. Readers take it only when the sample they want
//     lies past the published prefix.
//   - Determinism: each walk draws from its own simclock.Stream keyed
//     by (seed, stream name), strictly sequentially, so a sample
//     depends only on (seed, stream, index) — never on which
//     goroutine, strategy arm, or query order triggered it. Rounding a
//     request up to a segment boundary merely draws later samples of
//     the same stream earlier than a per-env walk would have.
//   - A snapshot never shrinks. The store bounds memory by forgetting
//     whole snapshots; a rebuilt one redraws the same streams, so its
//     values are bit-identical.

// Segment geometry: 256 float64 samples (2 KiB) per segment.
const (
	segShift = 8
	segSize  = 1 << segShift
)

// sharedWalk is the concurrency-safe successor of the per-Model walk:
// the same bounded mean-reverting process, materialised as one
// published prefix instead of one private slice.
type sharedWalk struct {
	seed   int64
	stream string

	base, sigma, revert, lo, hi float64

	// resident points at the owning Snapshot's published-segment
	// counter (SnapshotStore accounting).
	resident *atomic.Int64

	// data is the published prefix of drawn samples; its length is
	// always a whole number of segments.
	data atomic.Pointer[[]float64]

	mu  sync.Mutex    // guards rng and publication
	rng *simclock.RNG // frontier stream; nil until the first draw
}

func (s *Snapshot) newWalk(stream string, base, sigma, revert, lo, hi float64) *sharedWalk {
	return &sharedWalk{
		seed: s.seed, stream: stream,
		base: base, sigma: sigma, revert: revert, lo: lo, hi: hi,
		resident: &s.resident,
	}
}

// at returns the walk value at step k (k < 0 clamps to 0), growing the
// published prefix as needed. Lock-free when step k is already
// published.
//
//spotverse:hotpath
func (w *sharedWalk) at(k int) float64 {
	if k < 0 {
		k = 0
	}
	if p := w.data.Load(); p != nil && k < len(*p) {
		return (*p)[k]
	}
	//spotverse:allow hotpath prefix-miss slow path; warm reads return from the published prefix above
	return w.extend(k)
}

// extend grows the published prefix through the segment holding step k
// and returns the sample.
func (w *sharedWalk) extend(k int) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var old []float64
	if p := w.data.Load(); p != nil {
		old = *p
	}
	if k < len(old) {
		// Lost a race: another goroutine published it while we waited.
		return old[k]
	}
	if w.rng == nil {
		// Seeding a stream is the expensive part of a cold market
		// (~1.3µs each across ~600 walks per snapshot); defer it to the
		// first draw so untouched series cost only their struct.
		w.rng = simclock.Stream(w.seed, w.stream)
	}
	n := ((k >> segShift) + 1) << segShift
	next := append(make([]float64, 0, n), old...)
	for i := len(old); i < n; i++ {
		var v float64
		if i == 0 {
			// First sample starts near base with a small perturbation so
			// distinct markets don't all begin at their exact tier
			// midpoint.
			v = clamp(w.base+w.rng.Normal(0, w.sigma), w.lo, w.hi)
		} else {
			last := next[i-1]
			v = clamp(last+w.revert*(w.base-last)+w.rng.Normal(0, w.sigma), w.lo, w.hi)
		}
		next = append(next, v)
	}
	w.resident.Add(int64((n - len(old)) >> segShift))
	w.data.Store(&next)
	return next[k]
}

// minData is one immutable generation of a region's cheapest-AZ series:
// per-step min price, argmin AZ index, and prefix sums (prefix[0] = 0).
// Generations only grow by appending — published values are never
// rewritten — so a reader holding any generation sees exactly what the
// sequential per-Model minSeries would have produced.
type minData struct {
	min    []float64
	argAZ  []int32
	prefix []float64
}

// sharedMin is the concurrency-safe cheapest-AZ series for one
// (type, region), published whole-generation via atomic pointer swap.
type sharedMin struct {
	azs      []catalog.AZ
	walks    []*sharedWalk
	resident *atomic.Int64
	data     atomic.Pointer[minData]
	mu       sync.Mutex // guards extension and republication
}

// through returns a generation materialised through step k. Lock-free
// when one is already published.
func (s *sharedMin) through(k int) *minData {
	if d := s.data.Load(); d != nil && len(d.min) > k {
		return d
	}
	return s.extend(k)
}

func (s *sharedMin) extend(k int) *minData {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.data.Load()
	if d == nil {
		d = &minData{prefix: []float64{0}}
	}
	if len(d.min) > k {
		return d
	}
	// Materialise whole segments so store accounting stays uniform with
	// the walks; the extra trailing steps are the same values a longer
	// query would produce.
	n := ((k >> segShift) + 1) << segShift
	nd := &minData{
		min:    append(make([]float64, 0, n), d.min...),
		argAZ:  append(make([]int32, 0, n), d.argAZ...),
		prefix: append(make([]float64, 0, n+1), d.prefix...),
	}
	for i := len(d.min); i < n; i++ {
		// Same tie-break as the scan it replaces: first AZ in zone
		// order with the strictly lowest price.
		best, arg := s.walks[0].at(i), 0
		for j := 1; j < len(s.walks); j++ {
			if v := s.walks[j].at(i); v < best {
				best, arg = v, j
			}
		}
		nd.min = append(nd.min, best)
		nd.argAZ = append(nd.argAZ, int32(arg))
		nd.prefix = append(nd.prefix, nd.prefix[len(nd.prefix)-1]+best)
	}
	s.resident.Add(int64((n - len(d.min)) >> segShift))
	s.data.Store(nd)
	return nd
}

// Snapshot is one immutable market realization — every deterministic
// series for a (catalog, seed, start) triple. It is safe for concurrent
// use by any number of Models, strategy arms, and ForEach workers, and
// is byte-identical to the per-Model walks it replaces. Mutable
// per-experiment state (injected outages, seasonality) lives on the
// Model view, never here.
//
// Its series live in one dense [type][region] table of Offers, addressed
// by the catalog's type and region indices: the string-keyed queries
// resolve a market through the table, and the hot path resolves it once
// and keeps the *Offer.
type Snapshot struct {
	cat   *catalog.Catalog
	seed  int64
	start time.Time

	// offers is the [type][region] table, row-major; nil where the
	// catalog does not offer the type.
	offers   []*Offer
	nRegions int

	// cheap memoizes CheapestSpotRegion rankings per (type, window).
	// The ranking is deterministic, so arms racing on a cold key store
	// the same entry.
	cheapMu sync.Mutex
	cheap   map[cheapKey]cheapEntry

	// resident counts published segments across all series (store
	// accounting).
	resident atomic.Int64
}

// Offer is one (type, region) market of a snapshot: its interruption-
// frequency and placement-score walks, its per-AZ price walks with
// their cheapest-AZ series, and its on-demand price. Resolve it once
// (Model.Offer) and every read after that is a pointer chase and a
// slice index; the reads are the values the string-keyed queries
// return, bit for bit. Outages and seasonality are per-Model state, so
// the reads that honour them are Model methods taking the Offer.
type Offer struct {
	typ      catalog.InstanceType
	region   catalog.Region
	ri       int // the region's catalog index
	onDemand float64
	startNs  int64 // the snapshot start, in Unix nanoseconds

	freq, sps *sharedWalk
	// min holds the price walks in zone order and their cheapest-AZ
	// series.
	min sharedMin
}

// NewSnapshot builds the (empty) series index for every offered
// (type, region, AZ) in the catalog. Construction allocates only the
// walk structs; no RNG is seeded and no sample drawn until first use.
func NewSnapshot(cat *catalog.Catalog, seed int64, start time.Time) *Snapshot {
	types, regions := cat.InstanceTypes(), cat.Regions()
	s := &Snapshot{
		cat:      cat,
		seed:     seed,
		start:    start,
		offers:   make([]*Offer, len(types)*len(regions)),
		nRegions: len(regions),
		cheap:    make(map[cheapKey]cheapEntry),
	}
	for ti, t := range types {
		for ri, r := range regions {
			if !cat.OfferedAt(ti, ri) {
				continue
			}
			// The catalog lists (t, r) as offered, so its region record
			// and prices resolve.
			info, _ := cat.RegionInfo(r)
			fbase := tierFrequency(info.Tier)
			sbase := tierSPS(info.Tier)
			if r == caCentral && caCentralTrapped(t) {
				fbase = caCentralFrequency
				sbase = caCentralSPSLatent
			}
			fsigma := tierFreqSigma(info.Tier)
			ssigma := 0.06
			if t.Family() == "p3" {
				// GPU capacity is scarce and reclaimed in bursts:
				// interruption frequency swings harder for p3, while its
				// placement score is near-constant across regions (Fig. 4).
				fsigma = 0.028
				ssigma = 0.02
				sbase = 3.30
			}
			od, _ := cat.OnDemandPrice(t, r)
			base, _ := cat.BaselineSpotPrice(t, r)
			o := &Offer{
				typ: t, region: r, ri: ri, onDemand: od, startNs: start.UnixNano(),
				freq: s.newWalk("freq/"+string(t)+"/"+string(r), fbase, fsigma, 0.30, 0.005, 0.35),
				sps:  s.newWalk("sps/"+string(t)+"/"+string(r), sbase, ssigma, 0.35, 1, 10),
				min:  sharedMin{azs: info.Zones, walks: make([]*sharedWalk, len(info.Zones)), resident: &s.resident},
			}
			for i, az := range info.Zones {
				// Post-2017 spot prices: smooth, ±12% band around the
				// baseline, slow reversion, sigma proportional to level.
				o.min.walks[i] = s.newWalk("price/"+string(t)+"/"+string(az), base, base*0.015, 0.05, base*0.88, base*1.12)
			}
			s.offers[ti*len(regions)+ri] = o
		}
	}
	return s
}

// Catalog exposes the snapshot's inventory.
func (s *Snapshot) Catalog() *catalog.Catalog { return s.cat }

// Seed reports the snapshot's RNG seed.
func (s *Snapshot) Seed() int64 { return s.seed }

// Start reports the first instant the snapshot has data for.
func (s *Snapshot) Start() time.Time { return s.start }

// ResidentSegments reports the snapshot's published segment count
// (each segment is segSize float64 samples).
func (s *Snapshot) ResidentSegments() int { return int(s.resident.Load()) }

// Offer resolves the (t, r) market, or reports false when the catalog
// does not offer t in r.
func (s *Snapshot) Offer(t catalog.InstanceType, r catalog.Region) (*Offer, bool) {
	ti, ok := s.cat.TypeIndex(t)
	if !ok {
		return nil, false
	}
	ri, ok := s.cat.RegionIndex(r)
	if !ok {
		return nil, false
	}
	o := s.offers[ti*s.nRegions+ri]
	return o, o != nil
}

// stepIndex returns the step of length step that at falls in, counted
// from startNs; instants before it clamp to step 0. Simulated instants
// lie well inside int64 nanoseconds, where this equals at.Sub(start) /
// step without Sub's overflow checks.
func stepIndex(startNs int64, at time.Time, step time.Duration) int {
	return stepIndexNs(startNs, at.UnixNano(), step)
}

// stepIndexNs is stepIndex for an instant given in Unix nanoseconds.
func stepIndexNs(startNs, ns int64, step time.Duration) int {
	d := ns - startNs
	if d < 0 {
		return 0
	}
	return int(d / int64(step))
}

// Type reports the offer's instance type.
func (o *Offer) Type() catalog.InstanceType { return o.typ }

// Region reports the offer's region.
func (o *Offer) Region() catalog.Region { return o.region }

// RegionIndex reports the region's catalog index.
func (o *Offer) RegionIndex() int { return o.ri }

// Zone returns the offer region's i-th availability zone.
func (o *Offer) Zone(i int) catalog.AZ { return o.min.azs[i] }

// NumZones reports how many availability zones the offer region has.
func (o *Offer) NumZones() int { return len(o.min.azs) }

// OnDemandPrice reports the hourly on-demand USD price.
func (o *Offer) OnDemandPrice() float64 { return o.onDemand }

// SpotPrice returns the cheapest-AZ spot price at the given instant and
// that AZ's index — Model.RegionSpotPrice without the lookup.
func (o *Offer) SpotPrice(at time.Time) (float64, int) {
	k := stepIndex(o.startNs, at, PriceStep)
	d := o.min.through(k)
	return d.min[k], int(d.argAZ[k])
}

// PriceSeries returns the handle on the price walk of the offer's i-th
// zone.
func (o *Offer) PriceSeries(i int) PriceSeries {
	return PriceSeries{w: o.min.walks[i], startNs: o.startNs}
}

// PriceStepIndex reports the price step an instant falls in, counted
// from the series start; instants before it clamp to step 0. Every
// price read at instants with the same step index returns the same
// sample.
func (o *Offer) PriceStepIndex(at time.Time) int { return stepIndex(o.startNs, at, PriceStep) }

//spotverse:hotpath
func (o *Offer) frequency(at time.Time) float64 {
	return o.freq.at(stepIndex(o.startNs, at, MetricStep))
}

//spotverse:hotpath
func (o *Offer) placementLatent(at time.Time) float64 {
	return o.sps.at(stepIndex(o.startNs, at, MetricStep))
}

// zoneIndex returns az's position among the offer's zones, or -1.
func (o *Offer) zoneIndex(az catalog.AZ) int {
	for i, z := range o.min.azs {
		if z == az {
			return i
		}
	}
	return -1
}

// priceWalk resolves the (type, AZ) price walk, reproducing the
// pre-snapshot error for combinations the catalog does not offer.
func (s *Snapshot) priceWalk(t catalog.InstanceType, az catalog.AZ) (*sharedWalk, error) {
	if o, ok := s.Offer(t, az.Region()); ok {
		if i := o.zoneIndex(az); i >= 0 {
			return o.min.walks[i], nil
		}
	}
	if _, err := s.cat.BaselineSpotPrice(t, az.Region()); err != nil {
		return nil, err
	}
	// Offered (type, region) but an AZ the catalog does not list.
	return nil, fmt.Errorf("market: %s not offered in %s", t, az.Region())
}

// metricOffer resolves (t, r) for a frequency or placement-score query,
// reproducing the pre-snapshot error order: unknown region first, then
// not-offered.
func (s *Snapshot) metricOffer(t catalog.InstanceType, r catalog.Region) (*Offer, error) {
	if o, ok := s.Offer(t, r); ok {
		return o, nil
	}
	if _, err := s.cat.RegionInfo(r); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("market: %s not offered in %s", t, r)
}

// seriesOffer resolves (t, r) for a cheapest-AZ query, reproducing the
// pre-snapshot error order.
func (s *Snapshot) seriesOffer(t catalog.InstanceType, r catalog.Region) (*Offer, error) {
	o, ok := s.Offer(t, r)
	if !ok {
		return nil, fmt.Errorf("market: %s not offered in %s", t, r)
	}
	if o.NumZones() == 0 {
		return nil, fmt.Errorf("market: region %s has no zones", r)
	}
	return o, nil
}

func (s *Snapshot) spotPrice(t catalog.InstanceType, az catalog.AZ, at time.Time) (float64, error) {
	w, err := s.priceWalk(t, az)
	if err != nil {
		return 0, err
	}
	return w.at(stepIndex(s.start.UnixNano(), at, PriceStep)), nil
}

func (s *Snapshot) regionSpotPrice(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, catalog.AZ, error) {
	o, err := s.seriesOffer(t, r)
	if err != nil {
		return 0, "", err
	}
	p, az := o.SpotPrice(at)
	return p, o.Zone(az), nil
}

func (s *Snapshot) priceHistory(t catalog.InstanceType, az catalog.AZ, from, to time.Time, step time.Duration) ([]PricePoint, error) {
	if step <= 0 {
		step = PriceStep
	}
	if to.Before(from) {
		return nil, fmt.Errorf("market: history to %s before from %s", to, from)
	}
	w, err := s.priceWalk(t, az)
	if err != nil {
		return nil, err
	}
	// One allocation for the whole series; materialise through the last
	// step up front so the loop reads published segments only.
	n := int(to.Sub(from)/step) + 1
	w.at(stepIndex(s.start.UnixNano(), from.Add(time.Duration(n-1)*step), PriceStep))
	out := make([]PricePoint, 0, n)
	for ts := from; !ts.After(to); ts = ts.Add(step) {
		out = append(out, PricePoint{Time: ts, USDPerHour: w.at(stepIndex(s.start.UnixNano(), ts, PriceStep))})
	}
	return out, nil
}

// averagePrice is the per-decision query on the placement warm path:
// after the first call for a (type, region) the series and its prefix
// sums are cached and the answer is two slice reads.
//
//spotverse:hotpath
func (s *Snapshot) averagePrice(t catalog.InstanceType, r catalog.Region, from, to time.Time) (float64, error) {
	o, ok := s.Offer(t, r)
	if !ok {
		return 0, fmt.Errorf("market: %s not offered in %s", t, r)
	}
	return o.average(from, to)
}

// average is AveragePrice over the offer's cheapest-AZ series.
//
//spotverse:hotpath
func (o *Offer) average(from, to time.Time) (float64, error) {
	if to.Before(from) {
		return 0, fmt.Errorf("market: empty averaging window")
	}
	if o.NumZones() == 0 {
		return 0, fmt.Errorf("market: region %s has no zones", o.region)
	}
	n := int(to.Sub(from)/PriceStep) + 1
	last := stepIndex(o.startNs, from.Add(time.Duration(n-1)*PriceStep), PriceStep)
	//spotverse:allow hotpath prefix cache extends only when the window grows past the cached frontier
	d := o.min.through(last)
	if from.UnixNano() < o.startNs {
		// Pre-start samples clamp to step 0, so the window's step
		// indices are not contiguous; sum term by term (still cached).
		var sum float64
		for ts, i := from, 0; i < n; ts, i = ts.Add(PriceStep), i+1 {
			sum += d.min[stepIndex(o.startNs, ts, PriceStep)]
		}
		return sum / float64(n), nil
	}
	k0 := stepIndex(o.startNs, from, PriceStep)
	return (d.prefix[last+1] - d.prefix[k0]) / float64(n), nil
}

func (s *Snapshot) cheapestSpotRegion(t catalog.InstanceType, from, to time.Time) (catalog.Region, float64, error) {
	ck := cheapKey{t: t, from: from.UnixNano(), to: to.UnixNano()}
	s.cheapMu.Lock()
	if e, ok := s.cheap[ck]; ok {
		s.cheapMu.Unlock()
		return e.region, e.price, nil
	}
	s.cheapMu.Unlock()
	var (
		best      catalog.Region
		bestPrice float64
		found     bool
	)
	if ti, ok := s.cat.TypeIndex(t); ok {
		for _, o := range s.offers[ti*s.nRegions : (ti+1)*s.nRegions] {
			if o == nil {
				continue
			}
			p, err := o.average(from, to)
			if err != nil {
				return "", 0, err
			}
			if !found || p < bestPrice {
				best, bestPrice, found = o.region, p, true
			}
		}
	}
	if !found {
		return "", 0, fmt.Errorf("market: %s offered nowhere", t)
	}
	s.cheapMu.Lock()
	s.cheap[ck] = cheapEntry{region: best, price: bestPrice}
	s.cheapMu.Unlock()
	return best, bestPrice, nil
}

// PriceSeries is a lock-free handle on one (type, AZ) price walk:
// resolve the walk once, then sample many instants without per-query
// map lookups. The Provider's interruption scheduler reads up to 240
// steps per launched instance through one of these.
type PriceSeries struct {
	w       *sharedWalk
	startNs int64
}

// At samples the series at the given instant — identical to
// Model.SpotPrice for the same arguments.
//
//spotverse:hotpath
func (ps PriceSeries) At(at time.Time) float64 {
	return ps.AtNs(at.UnixNano())
}

// AtNs samples the series at the instant ns Unix nanoseconds — At for
// callers that step through time as integers.
//
//spotverse:hotpath
func (ps PriceSeries) AtNs(ns int64) float64 {
	return ps.w.at(stepIndexNs(ps.startNs, ns, PriceStep))
}
