// Package serve is spotverse-serve's robustness boundary: a
// long-running placement service that stays correct and bounded under
// overload, backend brownouts, and shutdown.
//
// The request path is, in order:
//
//  1. drain gate — a draining server refuses new work with 503 and a
//     Retry-After, but keeps answering in-flight requests;
//  2. token-bucket rate limiter — sustained request rate above the
//     configured refill sheds with 429 + Retry-After;
//  3. admission controller — a queue-depth + estimated-cost load
//     controller that sheds with 429 + Retry-After *before* the queue
//     saturates (when the projected queueing delay for the new request
//     would exceed MaxEstimatedWait);
//  4. worker slots — each admitted request runs on its own handler
//     goroutine once it holds one of Workers slots; at most QueueDepth
//     admitted requests wait, and slots are granted first-in,
//     first-out;
//  5. per-request deadline — the request context carries a deadline
//     propagated into every backend call; a request whose deadline
//     expired while it queued is answered 504 without touching the
//     backend;
//  6. degraded mode — when the serve-level circuit breaker is open, or
//     a backend call fails, the response is a typed 503 built from the
//     cached advisor snapshot (best-effort placement included), never a
//     hang and never silence;
//  7. panic isolation — a panicking handler converts to a 500 for that
//     request alone; its slot is released and the server survives.
//
// Every request therefore gets exactly one explicit outcome: an answer
// (200), a degraded answer (503), a shed (429/503+Retry-After), a
// deadline miss (504), or an isolated internal error (500).
//
// Determinism: the package takes time exclusively from an injected
// Clock. Live servers run on the wall clock (constructed in cmd/, the
// sanctioned edge); replay mode drives the identical gate logic on the
// simulation clock with virtual workers, so a recorded trace produces
// byte-stable outcomes at any -parallel setting (see replay.go).
package serve

import (
	"errors"
	"time"
)

// Clock abstracts time so the serving core never reads the wall clock
// directly: live servers inject a wall clock at the HTTP edge (cmd/),
// tests and replay inject the simulation engine.
type Clock interface {
	Now() time.Time
}

// Defaults for Config fields left zero.
const (
	DefaultWorkers       = 4
	DefaultQueueDepth    = 64
	DefaultRatePerSec    = 200.0
	DefaultDeadline      = 2 * time.Second
	DefaultDrainDeadline = 10 * time.Second
	DefaultServiceTime   = 25 * time.Millisecond
	// DefaultBreakerFailures trips the serve-level breaker after this
	// many consecutive backend failures.
	DefaultBreakerFailures = 4
	// DefaultBreakerCooldown is how long the serve breaker stays open
	// before letting a half-open probe through.
	DefaultBreakerCooldown = 5 * time.Second
	// MaxPlacementsPerRequest caps /v1/place batch size so one request
	// cannot ask for unbounded work.
	MaxPlacementsPerRequest = 32
)

// Endpoint cost weights: the admission controller's unit of estimated
// work. A placement consults the optimizer; advisor and migration reads
// are cheaper snapshot copies.
const (
	CostPlace      = 1.0
	CostAdvisor    = 0.25
	CostMigrations = 0.25
)

// Config parameterises a Server. The zero value gets defaults from
// normalized.
type Config struct {
	// Workers bounds backend concurrency (default DefaultWorkers).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker (default DefaultQueueDepth). The admission controller
	// never lets the queue grow past this.
	QueueDepth int
	// RatePerSec is the token bucket's refill rate in request-cost
	// units per second (default DefaultRatePerSec).
	RatePerSec float64
	// Burst is the token bucket's capacity (default 2*RatePerSec). It
	// must hold at least CostPlace, or no placement could ever pass.
	Burst float64
	// Deadline is the per-request deadline propagated into backend
	// calls (default DefaultDeadline).
	Deadline time.Duration
	// MaxEstimatedWait sheds a request whose projected queueing delay
	// exceeds it (default Deadline/2), so the queue stops accepting
	// work it could not serve in time — shedding before saturation.
	MaxEstimatedWait time.Duration
	// DrainDeadline bounds how long Drain waits for in-flight requests
	// before aborting the stragglers (default DefaultDrainDeadline).
	DrainDeadline time.Duration
	// ServiceTime is the modeled per-unit-cost service duration used by
	// the admission controller's wait projection and by replay's
	// virtual workers (default DefaultServiceTime).
	ServiceTime time.Duration
	// BreakerFailures and BreakerCooldown tune the serve-level circuit
	// breaker guarding the backend.
	BreakerFailures int
	BreakerCooldown time.Duration
	// Clock supplies time. Required: a live server injects a wall
	// clock at the edge, replay injects the simulation engine.
	Clock Clock
	// Trace, when set, records every arriving request (admitted or
	// shed) for later replay.
	Trace TraceSink
	// OnDrain hooks run during Drain after in-flight requests settle
	// and the backend flushed — e.g. flushing a trace recorder.
	OnDrain []func() error
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = DefaultRatePerSec
	}
	if c.Burst <= 0 {
		c.Burst = 2 * c.RatePerSec
	}
	if c.Deadline <= 0 {
		c.Deadline = DefaultDeadline
	}
	if c.MaxEstimatedWait <= 0 {
		c.MaxEstimatedWait = c.Deadline / 2
	}
	if c.DrainDeadline <= 0 {
		c.DrainDeadline = DefaultDrainDeadline
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = DefaultServiceTime
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = DefaultBreakerFailures
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	return c
}

// ErrNoClock rejects a Server built without a time source.
var ErrNoClock = errors.New("serve: Config.Clock is required")

// Status classifies a request's single explicit outcome.
type Status int

// Outcome statuses.
const (
	// StatusOK is a full answer from the live backend (HTTP 200).
	StatusOK Status = iota
	// StatusDegraded is a typed degraded answer served from the cached
	// advisor snapshot while the backend is unavailable (HTTP 503).
	StatusDegraded
	// StatusShed is an explicit refusal with Retry-After — rate limit,
	// admission control, or drain (HTTP 429; 503 while draining).
	StatusShed
	// StatusDeadline is a request whose deadline expired before it
	// could be served (HTTP 504).
	StatusDeadline
	// StatusError is an isolated internal failure — a handler panic or
	// a backend error with no cached snapshot to degrade onto (500).
	StatusError
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDegraded:
		return "degraded"
	case StatusShed:
		return "shed"
	case StatusDeadline:
		return "deadline"
	case StatusError:
		return "error"
	default:
		return "unknown"
	}
}

// Endpoint names, shared by the HTTP mux, trace format, and replay.
const (
	EndpointPlace      = "place"
	EndpointAdvisor    = "advisor"
	EndpointMigrations = "migrations"
)

// EndpointCost maps an endpoint to its admission cost weight; unknown
// endpoints weigh as a placement (the conservative reading).
func EndpointCost(endpoint string) float64 {
	switch endpoint {
	case EndpointAdvisor:
		return CostAdvisor
	case EndpointMigrations:
		return CostMigrations
	default:
		return CostPlace
	}
}
