package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/core"
	"spotverse/internal/simclock"
)

// PlaceRequest asks where to launch a workload right now.
type PlaceRequest struct {
	// WorkloadID labels the request (echoed back; used for tracing).
	WorkloadID string `json:"workload_id,omitempty"`
	// Count asks for that many placements, round-robined across the
	// current top regions (default 1, capped at
	// MaxPlacementsPerRequest).
	Count int `json:"count,omitempty"`
	// Exclude lists regions the caller refuses (e.g. the region a
	// workload was just interrupted in).
	Exclude []string `json:"exclude,omitempty"`
}

func (r *PlaceRequest) placementCount() int {
	if r.Count < 1 {
		return 1
	}
	if r.Count > MaxPlacementsPerRequest {
		return MaxPlacementsPerRequest
	}
	return r.Count
}

// Placement is one (region, lifecycle) answer.
type Placement struct {
	Region    string `json:"region"`
	Lifecycle string `json:"lifecycle"`
}

// PlaceResponse answers a PlaceRequest.
type PlaceResponse struct {
	WorkloadID string      `json:"workload_id,omitempty"`
	Placements []Placement `json:"placements"`
	// Degraded marks a best-effort answer built from a cached advisor
	// snapshot while the backend was unavailable.
	Degraded bool `json:"degraded"`
}

// AdvisorEntry is one region row of the advisor snapshot surface.
type AdvisorEntry struct {
	Region         string  `json:"region"`
	SpotPriceUSD   float64 `json:"spot_price_usd"`
	OnDemandUSD    float64 `json:"on_demand_usd"`
	StabilityScore int     `json:"stability_score"`
	PlacementScore int     `json:"placement_score"`
	CombinedScore  int     `json:"combined_score"`
}

// AdvisorResponse is the advisor-snapshot surface: per-region metrics
// plus the optimizer's current region ranking (cheapest qualifying
// region first), which is also what degraded mode round-robins over.
type AdvisorResponse struct {
	CollectedAt time.Time      `json:"collected_at"`
	Entries     []AdvisorEntry `json:"entries"`
	Ranking     []string       `json:"ranking"`
	Degraded    bool           `json:"degraded"`
	// AgeMS is how stale the snapshot is, relative to the serving
	// clock; nonzero only on degraded responses.
	AgeMS int64 `json:"age_ms,omitempty"`
}

// MigrationsResponse reports the Controller's migration status.
type MigrationsResponse struct {
	Pending      int `json:"pending"`
	Handled      int `json:"handled"`
	Failures     int `json:"failures"`
	Sweeps       int `json:"sweeps"`
	Recoveries   int `json:"recoveries"`
	BreakerTrips int `json:"breaker_trips"`
	BreakerSkips int `json:"breaker_skips"`
}

// Backend is the placement engine behind the server. Implementations
// must honor ctx cancellation and be safe for concurrent use; the
// worker pool bounds how many calls run at once. Place fills resp in
// place so a warm caller can reuse one response across requests.
type Backend interface {
	Place(ctx context.Context, req *PlaceRequest, resp *PlaceResponse) error
	Advisor(ctx context.Context) (*AdvisorResponse, error)
	Migrations(ctx context.Context) (*MigrationsResponse, error)
}

// Flusher is an optional Backend extension: Drain calls Flush after
// in-flight requests settle, giving the backend a barrier to persist
// anything buffered (the SimBackend's journal writes are synchronous,
// so its flush is a verification barrier, not a data move).
type Flusher interface {
	Flush(ctx context.Context) error
}

// FaultFunc matches chaos.Injector.ServiceFault's closure shape, so a
// chaos injector wires straight into the serve backend.
type FaultFunc func(op string, region catalog.Region) error

// SimBackend serves placements from a SpotVerse manager deployed on
// the simulated cloud. The simulation engine is single-threaded, so
// every call serialises on one mutex; the worker pool in front bounds
// how much work piles up on it.
//
// The hot path is memoized: the optimizer's region ranking and the
// advisor snapshot are recomputed only when the Monitor collected a
// new snapshot or simulated time moved, so a warm /v1/place is a
// mutex, a round-robin counter bump, and an in-place response fill —
// no allocation, no DynamoDB scan. A recompute makes two billed scans
// (TopRegions and LatestAged), but the Monitor decodes rows only when
// the metrics table was written since its last decode.
type SimBackend struct {
	mu    sync.Mutex
	eng   *simclock.Engine
	mgr   *core.SpotVerse
	fault FaultFunc

	// memoized ranking + advisor surface, keyed by (collections, now):
	// staleness discounts depend on now, so any clock move recomputes,
	// while the Monitor's own decode is keyed by the table version.
	epoch    int
	cachedAt time.Time
	ranking  []catalog.Region
	rankStr  []string
	entries  []AdvisorEntry

	rr      uint64
	flushes int
}

// NewSimBackend wraps a deployed manager.
func NewSimBackend(eng *simclock.Engine, mgr *core.SpotVerse) *SimBackend {
	return &SimBackend{eng: eng, mgr: mgr}
}

// SetFault installs a chaos fault hook (chaos.Injector.ServiceFault):
// every backend call consults it first, so brownouts and error rates
// scheduled for the serve service surface as backend failures the
// degraded path must absorb.
func (b *SimBackend) SetFault(fn FaultFunc) {
	b.mu.Lock()
	b.fault = fn
	b.mu.Unlock()
}

// refresh recomputes the memoized ranking and advisor surface when the
// monitor collected since, or simulated time moved (staleness
// discounts depend on it). Callers hold b.mu.
func (b *SimBackend) refresh() error {
	now := b.eng.Now()
	collections := b.mgr.Monitor().Collections()
	if b.ranking != nil && collections == b.epoch && now.Equal(b.cachedAt) {
		return nil
	}
	top, err := b.mgr.Optimizer().TopRegions(nil)
	if err != nil {
		return err
	}
	aged, err := b.mgr.Monitor().LatestAged()
	if err != nil {
		return err
	}
	b.ranking = top
	b.rankStr = b.rankStr[:0]
	for _, r := range top {
		b.rankStr = append(b.rankStr, string(r))
	}
	b.entries = b.entries[:0]
	for _, e := range aged {
		b.entries = append(b.entries, AdvisorEntry{
			Region:         string(e.Region),
			SpotPriceUSD:   e.SpotPriceUSD,
			OnDemandUSD:    e.OnDemandUSD,
			StabilityScore: e.StabilityScore,
			PlacementScore: e.PlacementScore,
			CombinedScore:  e.CombinedScore,
		})
	}
	b.epoch = b.mgr.Monitor().Collections()
	b.cachedAt = now
	return nil
}

// Place implements Backend. The warm path — ranking memoized, resp
// reused — allocates nothing.
//
//spotverse:hotpath
func (b *SimBackend) Place(ctx context.Context, req *PlaceRequest, resp *PlaceResponse) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fault != nil {
		if err := b.fault("Place", ""); err != nil {
			return err
		}
	}
	//spotverse:allow hotpath ranking rebuild is memoized per monitor epoch; warm requests return at the epoch check inside refresh
	if err := b.refresh(); err != nil {
		return err
	}
	count := req.placementCount()
	resp.WorkloadID = req.WorkloadID
	resp.Degraded = false
	resp.Placements = resp.Placements[:0]
	if len(b.ranking) == 0 {
		// No region clears the threshold: the on-demand fallback,
		// Algorithm 1's escape hatch.
		od, err := b.mgr.Optimizer().CheapestOnDemand()
		if err != nil {
			return err
		}
		for i := 0; i < count; i++ {
			resp.Placements = append(resp.Placements, Placement{Region: string(od), Lifecycle: cloud.LifecycleOnDemand.String()})
		}
		return nil
	}
	for i := 0; i < count; i++ {
		region, ok := pickRegion(b.rankStr, req.Exclude, b.rr)
		if !ok {
			return fmt.Errorf("serve: exclusions cover all %d candidate regions", len(b.rankStr))
		}
		b.rr++
		resp.Placements = append(resp.Placements, Placement{Region: region, Lifecycle: cloud.LifecycleSpot.String()})
	}
	return nil
}

// Advisor implements Backend.
func (b *SimBackend) Advisor(ctx context.Context) (*AdvisorResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fault != nil {
		if err := b.fault("Advisor", ""); err != nil {
			return nil, err
		}
	}
	if err := b.refresh(); err != nil {
		return nil, err
	}
	return &AdvisorResponse{
		CollectedAt: b.cachedAt,
		Entries:     append([]AdvisorEntry(nil), b.entries...),
		Ranking:     append([]string(nil), b.rankStr...),
	}, nil
}

// Migrations implements Backend.
func (b *SimBackend) Migrations(ctx context.Context) (*MigrationsResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fault != nil {
		if err := b.fault("Migrations", ""); err != nil {
			return nil, err
		}
	}
	ctl := b.mgr.Controller()
	handled, failures, sweeps := ctl.Stats()
	recoveries, trips, skips := ctl.ResilienceStats()
	return &MigrationsResponse{
		Pending:      ctl.Pending(),
		Handled:      handled,
		Failures:     failures,
		Sweeps:       sweeps,
		Recoveries:   recoveries,
		BreakerTrips: trips,
		BreakerSkips: skips,
	}, nil
}

// Flush implements Flusher. The journal's writes are synchronous
// conditional DynamoDB puts — there is no buffered data to move — so
// the flush is a drain barrier: it serialises behind any in-flight
// backend call and counts that the barrier ran.
func (b *SimBackend) Flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushes++
	return nil
}

// Flushes reports how many drain barriers completed.
func (b *SimBackend) Flushes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushes
}
