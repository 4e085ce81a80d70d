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
type Snapshot struct {
	cat   *catalog.Catalog
	seed  int64
	start time.Time

	prices    map[azKey]*sharedWalk
	freq      map[Key]*sharedWalk
	sps       map[Key]*sharedWalk
	regionMin map[Key]*sharedMin

	// cheap memoizes CheapestSpotRegion rankings per (type, window).
	// The ranking is deterministic, so arms racing on a cold key store
	// the same entry.
	cheapMu sync.Mutex
	cheap   map[cheapKey]cheapEntry

	// resident counts published segments across all series (store
	// accounting).
	resident atomic.Int64
}

// NewSnapshot builds the (empty) series index for every offered
// (type, region, AZ) in the catalog. Construction allocates only the
// walk structs; no RNG is seeded and no sample drawn until first use.
func NewSnapshot(cat *catalog.Catalog, seed int64, start time.Time) *Snapshot {
	s := &Snapshot{
		cat:       cat,
		seed:      seed,
		start:     start,
		prices:    make(map[azKey]*sharedWalk),
		freq:      make(map[Key]*sharedWalk),
		sps:       make(map[Key]*sharedWalk),
		regionMin: make(map[Key]*sharedMin),
		cheap:     make(map[cheapKey]cheapEntry),
	}
	for _, t := range cat.InstanceTypes() {
		for _, r := range cat.OfferedRegions(t) {
			info, err := cat.RegionInfo(r)
			if err != nil {
				continue
			}
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
			k := Key{Region: r, Type: t}
			fw := s.newWalk("freq/"+string(t)+"/"+string(r), fbase, fsigma, 0.30, 0.005, 0.35)
			sw := s.newWalk("sps/"+string(t)+"/"+string(r), sbase, ssigma, 0.35, 1, 10)
			s.freq[k] = fw
			s.sps[k] = sw

			azs := cat.Zones(r)
			if len(azs) == 0 {
				continue
			}
			base, err := cat.BaselineSpotPrice(t, r)
			if err != nil {
				continue
			}
			sm := &sharedMin{azs: azs, walks: make([]*sharedWalk, 0, len(azs)), resident: &s.resident}
			for _, az := range azs {
				// Post-2017 spot prices: smooth, ±12% band around the
				// baseline, slow reversion, sigma proportional to level.
				pw := s.newWalk("price/"+string(t)+"/"+string(az), base, base*0.015, 0.05, base*0.88, base*1.12)
				s.prices[azKey{az: az, t: t}] = pw
				sm.walks = append(sm.walks, pw)
			}
			s.regionMin[k] = sm
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

func (s *Snapshot) stepIndex(at time.Time, step time.Duration) int {
	d := at.Sub(s.start)
	if d < 0 {
		return 0
	}
	return int(d / step)
}

// priceWalk resolves the (type, AZ) price walk, reproducing the
// pre-snapshot error for combinations the catalog does not offer.
func (s *Snapshot) priceWalk(t catalog.InstanceType, az catalog.AZ) (*sharedWalk, error) {
	if w, ok := s.prices[azKey{az: az, t: t}]; ok {
		return w, nil
	}
	if _, err := s.cat.BaselineSpotPrice(t, az.Region()); err != nil {
		return nil, err
	}
	// Offered (type, region) but an AZ the catalog does not list.
	return nil, fmt.Errorf("market: %s not offered in %s", t, az.Region())
}

// metricWalk resolves a (type, region) walk from the freq or sps map,
// reproducing the pre-snapshot error order: unknown region first, then
// not-offered.
func (s *Snapshot) metricWalk(series map[Key]*sharedWalk, t catalog.InstanceType, r catalog.Region) (*sharedWalk, error) {
	if w, ok := series[Key{Region: r, Type: t}]; ok {
		return w, nil
	}
	if _, err := s.cat.RegionInfo(r); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("market: %s not offered in %s", t, r)
}

// regionSeries resolves the cheapest-AZ series for (t, r), reproducing
// the pre-snapshot error order.
func (s *Snapshot) regionSeries(t catalog.InstanceType, r catalog.Region) (*sharedMin, error) {
	if sm, ok := s.regionMin[Key{Region: r, Type: t}]; ok {
		return sm, nil
	}
	if !s.cat.Offered(t, r) {
		return nil, fmt.Errorf("market: %s not offered in %s", t, r)
	}
	if len(s.cat.Zones(r)) == 0 {
		return nil, fmt.Errorf("market: region %s has no zones", r)
	}
	if _, err := s.cat.BaselineSpotPrice(t, r); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("market: %s not offered in %s", t, r)
}

func (s *Snapshot) spotPrice(t catalog.InstanceType, az catalog.AZ, at time.Time) (float64, error) {
	w, err := s.priceWalk(t, az)
	if err != nil {
		return 0, err
	}
	return w.at(s.stepIndex(at, PriceStep)), nil
}

func (s *Snapshot) regionSpotPrice(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, catalog.AZ, error) {
	if !s.cat.Offered(t, r) {
		return 0, "", fmt.Errorf("market: %s not offered in %s", t, r)
	}
	sm, err := s.regionSeries(t, r)
	if err != nil {
		return 0, "", err
	}
	k := s.stepIndex(at, PriceStep)
	d := sm.through(k)
	return d.min[k], sm.azs[d.argAZ[k]], nil
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
	w.at(s.stepIndex(from.Add(time.Duration(n-1)*step), PriceStep))
	out := make([]PricePoint, 0, n)
	for ts := from; !ts.After(to); ts = ts.Add(step) {
		out = append(out, PricePoint{Time: ts, USDPerHour: w.at(s.stepIndex(ts, PriceStep))})
	}
	return out, nil
}

func (s *Snapshot) interruptionFrequency(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, error) {
	w, err := s.metricWalk(s.freq, t, r)
	if err != nil {
		return 0, err
	}
	return w.at(s.stepIndex(at, MetricStep)), nil
}

func (s *Snapshot) placementScoreLatent(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, error) {
	w, err := s.metricWalk(s.sps, t, r)
	if err != nil {
		return 0, err
	}
	return w.at(s.stepIndex(at, MetricStep)), nil
}

// averagePrice is the per-decision query on the placement warm path:
// after the first call for a (type, region) the series and its prefix
// sums are cached and the answer is two slice reads.
//
//spotverse:hotpath
func (s *Snapshot) averagePrice(t catalog.InstanceType, r catalog.Region, from, to time.Time) (float64, error) {
	if !s.cat.Offered(t, r) {
		return 0, fmt.Errorf("market: %s not offered in %s", t, r)
	}
	if to.Before(from) {
		return 0, fmt.Errorf("market: empty averaging window")
	}
	//spotverse:allow hotpath first-use memoization miss; repeat (type, region) queries hit the cached series
	sm, err := s.regionSeries(t, r)
	if err != nil {
		return 0, err
	}
	n := int(to.Sub(from)/PriceStep) + 1
	last := s.stepIndex(from.Add(time.Duration(n-1)*PriceStep), PriceStep)
	//spotverse:allow hotpath prefix cache extends only when the window grows past the cached frontier
	d := sm.through(last)
	if from.Before(s.start) {
		// Pre-start samples clamp to step 0, so the window's step
		// indices are not contiguous; sum term by term (still cached).
		var sum float64
		for ts, i := from, 0; i < n; ts, i = ts.Add(PriceStep), i+1 {
			sum += d.min[s.stepIndex(ts, PriceStep)]
		}
		return sum / float64(n), nil
	}
	k0 := s.stepIndex(from, PriceStep)
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
	for _, r := range s.cat.OfferedRegions(t) {
		p, err := s.averagePrice(t, r, from, to)
		if err != nil {
			return "", 0, err
		}
		if !found || p < bestPrice {
			best, bestPrice, found = r, p, true
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
	w     *sharedWalk
	start time.Time
}

// At samples the series at the given instant — identical to
// Model.SpotPrice for the same arguments.
//
//spotverse:hotpath
func (ps PriceSeries) At(at time.Time) float64 {
	d := at.Sub(ps.start)
	if d < 0 {
		d = 0
	}
	return ps.w.at(int(d / PriceStep))
}
