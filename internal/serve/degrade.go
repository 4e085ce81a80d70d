package serve

import (
	"sync"
	"time"
)

// breakerState mirrors the Controller's circuit-breaker lifecycle
// (internal/core/breaker.go), lifted to a thread-safe serve-level
// guard in front of the backend.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a concurrency-safe circuit breaker guarding the backend:
// consecutive failures trip it open, open requests short-circuit to
// the degraded path without touching the backend, and after the
// cooldown exactly one half-open probe is let through — its success
// closes the breaker, its failure re-trips, and concurrent requests
// during the probe keep degrading rather than dogpiling a backend
// that may still be down.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state       breakerState
	consecutive int
	openedAt    time.Time
	probing     bool
	trips       uint64
}

// NewBreaker builds a closed breaker.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a call may reach the backend. An open breaker
// past its cooldown half-opens and admits a single probe; every other
// caller is refused until the probe resolves.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: only the in-flight probe may proceed
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful backend call, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.consecutive = 0
	b.probing = false
}

// Failure records a failed backend call: a half-open probe failure
// re-trips immediately, a closed breaker trips at the threshold.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.state == breakerHalfOpen || b.consecutive >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
		b.consecutive = 0
		b.probing = false
		b.trips++
	}
}

// Trips reports how many times the breaker opened.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// advisorCache is the degraded-mode data source: the last advisor
// snapshot and region ranking a healthy backend produced. While the
// backend is browned out the cache answers 503s with best-effort
// placements instead of nothing, and its age is reported so clients
// can judge the staleness themselves.
type advisorCache struct {
	mu      sync.RWMutex
	advisor *AdvisorResponse
	at      time.Time
	rr      uint64
}

// store refreshes the cache from a healthy advisor response.
func (c *advisorCache) store(resp *AdvisorResponse, now time.Time) {
	if resp == nil {
		return
	}
	cp := *resp
	cp.Entries = append([]AdvisorEntry(nil), resp.Entries...)
	cp.Ranking = append([]string(nil), resp.Ranking...)
	c.mu.Lock()
	c.advisor = &cp
	c.at = now
	c.mu.Unlock()
}

// snapshot returns the cached advisor response (shared, read-only) and
// its age; ok is false when nothing was ever cached.
func (c *advisorCache) snapshot(now time.Time) (resp *AdvisorResponse, age time.Duration, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.advisor == nil {
		return nil, 0, false
	}
	return c.advisor, now.Sub(c.at), true
}

// bestEffort builds a degraded placement from the cached ranking,
// round-robining across the cached top regions and honoring the
// request's exclusions. ok is false when no usable region is cached.
func (c *advisorCache) bestEffort(req *PlaceRequest, resp *PlaceResponse) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.advisor == nil || len(c.advisor.Ranking) == 0 {
		return false
	}
	ranking := c.advisor.Ranking
	count := req.placementCount()
	resp.WorkloadID = req.WorkloadID
	resp.Degraded = true
	resp.Placements = resp.Placements[:0]
	for i := 0; i < count; i++ {
		region, ok := pickRegion(ranking, req.Exclude, c.rr)
		if !ok {
			return false
		}
		c.rr++
		resp.Placements = append(resp.Placements, Placement{Region: region, Lifecycle: "spot"})
	}
	return true
}

// pickRegion selects the rr-th non-excluded region round-robin; ok is
// false when the exclusions cover the whole ranking.
func pickRegion(ranking []string, exclude []string, rr uint64) (string, bool) {
	n := uint64(len(ranking))
	for i := uint64(0); i < n; i++ {
		r := ranking[(rr+i)%n]
		if !containsString(exclude, r) {
			return r, true
		}
	}
	return "", false
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
