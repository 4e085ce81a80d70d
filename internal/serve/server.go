package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// DegradedResponse is the typed 503 body served while the backend is
// unavailable: the reason, the cached advisor snapshot's age, a
// best-effort placement from the cached ranking (for /v1/place), and a
// Retry-After mirror so clients that only read bodies see it too.
type DegradedResponse struct {
	Degraded      bool           `json:"degraded"`
	Reason        string         `json:"reason"`
	SnapshotAgeMS int64          `json:"snapshot_age_ms"`
	RetryAfterSec int            `json:"retry_after_sec"`
	Place         *PlaceResponse `json:"place,omitempty"`
	// Advisor carries the cached snapshot for /v1/advisor requests.
	Advisor *AdvisorResponse `json:"advisor,omitempty"`
}

// errorBody is the JSON envelope for plain failures.
type errorBody struct {
	Error string `json:"error"`
}

// Outcome is one request's single explicit result, as produced by the
// serving core (shared by the HTTP edge and replay).
type Outcome struct {
	Status     Status
	Code       int
	RetryAfter time.Duration
	Place      *PlaceResponse
	Advisor    *AdvisorResponse
	Migrations *MigrationsResponse
	Degraded   *DegradedResponse
	Err        string
}

// Stats is a consistent snapshot of the server's counters. OK +
// Degraded + Shed + Deadline + Errors always equals Requests: every
// request gets exactly one outcome.
type Stats struct {
	Requests       uint64 `json:"requests"`
	OK             uint64 `json:"ok"`
	Degraded       uint64 `json:"degraded"`
	Shed           uint64 `json:"shed"`
	ShedLimiter    uint64 `json:"shed_limiter"`
	ShedAdmission  uint64 `json:"shed_admission"`
	ShedDrain      uint64 `json:"shed_drain"`
	Deadline       uint64 `json:"deadline"`
	Errors         uint64 `json:"errors"`
	Panics         uint64 `json:"panics"`
	BreakerTrips   uint64 `json:"breaker_trips"`
	QueueHighWater int    `json:"queue_high_water"`
	Draining       bool   `json:"draining"`
	Ready          bool   `json:"ready"`
}

// Server is the always-on placement service. Build one with New, prime
// it with Warm, expose Handler over HTTP, and stop it with Drain.
type Server struct {
	cfg     Config
	clk     Clock
	backend Backend
	limiter *TokenBucket
	adm     *Admission
	// slots holds one token per running request: its capacity is
	// Workers, the bound on concurrent backend calls.
	slots chan struct{}
	brk   *Breaker
	cache advisorCache

	draining atomic.Bool
	ready    atomic.Bool
	drained  chan struct{}
	drainErr error

	requests    atomic.Uint64
	ok          atomic.Uint64
	degraded    atomic.Uint64
	shedLimiter atomic.Uint64
	shedAdmit   atomic.Uint64
	shedDrain   atomic.Uint64
	deadline    atomic.Uint64
	errorsN     atomic.Uint64
	panics      atomic.Uint64

	mux *http.ServeMux
}

// New builds a Server over a backend. The config must carry a Clock,
// and its (normalized) Burst must cover one placement's cost.
func New(cfg Config, backend Backend) (*Server, error) {
	if cfg.Clock == nil {
		return nil, ErrNoClock
	}
	if backend == nil {
		return nil, errors.New("serve: backend is required")
	}
	cfg = cfg.normalized()
	if cfg.Burst < CostPlace {
		return nil, fmt.Errorf("serve: token bucket burst %g is below the placement cost %g, so every placement would be shed", cfg.Burst, CostPlace)
	}
	s := &Server{
		cfg:     cfg,
		clk:     cfg.Clock,
		backend: backend,
		limiter: NewTokenBucket(cfg.RatePerSec, cfg.Burst, cfg.Clock.Now()),
		adm:     NewAdmission(cfg.QueueDepth, cfg.MaxEstimatedWait, cfg.ServiceTime, cfg.Workers),
		slots:   make(chan struct{}, cfg.Workers),
		brk:     NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown),
		drained: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/place", s.handlePlace)
	mux.HandleFunc("/v1/advisor", s.handleAdvisor)
	mux.HandleFunc("/v1/migrations", s.handleMigrations)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Warm primes the degraded-mode cache with one synchronous advisor
// read, so the server can serve typed 503s from a snapshot the moment
// traffic arrives. A server is not ready until warmed.
func (s *Server) Warm(ctx context.Context) error {
	resp, err := s.backend.Advisor(ctx)
	if err != nil {
		return fmt.Errorf("serve: warm: %w", err)
	}
	s.cache.store(resp, s.clk.Now())
	s.ready.Store(true)
	return nil
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	_, _, _, hw := s.adm.Stats()
	shedL, shedA, shedD := s.shedLimiter.Load(), s.shedAdmit.Load(), s.shedDrain.Load()
	return Stats{
		Requests:       s.requests.Load(),
		OK:             s.ok.Load(),
		Degraded:       s.degraded.Load(),
		Shed:           shedL + shedA + shedD,
		ShedLimiter:    shedL,
		ShedAdmission:  shedA,
		ShedDrain:      shedD,
		Deadline:       s.deadline.Load(),
		Errors:         s.errorsN.Load(),
		Panics:         s.panics.Load(),
		BreakerTrips:   s.brk.Trips(),
		QueueHighWater: hw,
		Draining:       s.draining.Load(),
		Ready:          s.ready.Load(),
	}
}

// count tallies one outcome; exactly one count per request, so the
// Stats invariant Requests == OK+Degraded+Shed+Deadline+Errors holds.
func (s *Server) count(o Outcome) {
	s.requests.Add(1)
	switch o.Status {
	case StatusOK:
		s.ok.Add(1)
	case StatusDegraded:
		s.degraded.Add(1)
	case StatusDeadline:
		s.deadline.Add(1)
	case StatusError:
		s.errorsN.Add(1)
	}
}

// gate runs the shared pre-slot pipeline: drain check, trace record,
// rate limit, admission. A nil ticket with a non-nil outcome means the
// request was refused at the gate.
func (s *Server) gate(endpoint, workloadID string) (*Ticket, Outcome, bool) {
	now := s.clk.Now()
	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(TraceEntry{Endpoint: endpoint, WorkloadID: workloadID})
	}
	if s.draining.Load() {
		return nil, s.shedDraining(), false
	}
	cost := EndpointCost(endpoint)
	if ok, retry := s.limiter.Allow(now, cost); !ok {
		s.shedLimiter.Add(1)
		return nil, Outcome{Status: StatusShed, Code: http.StatusTooManyRequests,
			RetryAfter: retry, Err: "rate limit exceeded"}, false
	}
	ticket, retry, ok := s.adm.Admit(cost)
	if !ok {
		if s.draining.Load() {
			// Drain closed admission after the check above.
			return nil, s.shedDraining(), false
		}
		s.shedAdmit.Add(1)
		return nil, Outcome{Status: StatusShed, Code: http.StatusTooManyRequests,
			RetryAfter: retry, Err: "over capacity"}, false
	}
	return ticket, Outcome{}, true
}

// shedDraining counts and builds the 503 refusal of a draining server.
func (s *Server) shedDraining() Outcome {
	s.shedDrain.Add(1)
	return Outcome{Status: StatusShed, Code: http.StatusServiceUnavailable,
		RetryAfter: s.cfg.DrainDeadline, Err: "draining"}
}

// process executes one admitted request against the backend, degrading
// onto the cached snapshot when the breaker is open or the call fails.
// It never panics outward and always returns exactly one outcome.
func (s *Server) process(ctx context.Context, endpoint string, req *PlaceRequest) Outcome {
	now := s.clk.Now()
	if !s.brk.Allow(now) {
		return s.degrade(endpoint, req, "circuit breaker open")
	}
	var err error
	var out Outcome
	switch endpoint {
	case EndpointAdvisor:
		var resp *AdvisorResponse
		if resp, err = s.backend.Advisor(ctx); err == nil {
			s.cache.store(resp, s.clk.Now())
			out = Outcome{Status: StatusOK, Code: http.StatusOK, Advisor: resp}
		}
	case EndpointMigrations:
		var resp *MigrationsResponse
		if resp, err = s.backend.Migrations(ctx); err == nil {
			out = Outcome{Status: StatusOK, Code: http.StatusOK, Migrations: resp}
		}
	default:
		resp := &PlaceResponse{}
		if err = s.backend.Place(ctx, req, resp); err == nil {
			out = Outcome{Status: StatusOK, Code: http.StatusOK, Place: resp}
		}
	}
	if err != nil {
		s.brk.Failure(s.clk.Now())
		if ctx.Err() != nil {
			// The deadline, not the backend, killed the call.
			return Outcome{Status: StatusDeadline, Code: http.StatusGatewayTimeout, Err: "deadline exceeded"}
		}
		return s.degrade(endpoint, req, err.Error())
	}
	s.brk.Success()
	return out
}

// degrade builds the typed 503 from the cached advisor snapshot. With
// nothing cached it is an explicit 500 — still one outcome, never a
// hang.
func (s *Server) degrade(endpoint string, req *PlaceRequest, reason string) Outcome {
	now := s.clk.Now()
	cached, age, ok := s.cache.snapshot(now)
	if !ok {
		return Outcome{Status: StatusError, Code: http.StatusInternalServerError,
			Err: "backend unavailable and no cached snapshot: " + reason}
	}
	retry := s.cfg.BreakerCooldown
	d := &DegradedResponse{
		Degraded:      true,
		Reason:        reason,
		SnapshotAgeMS: age.Milliseconds(),
		RetryAfterSec: retryAfterSeconds(retry),
	}
	switch endpoint {
	case EndpointAdvisor:
		adv := *cached
		adv.Degraded = true
		adv.AgeMS = age.Milliseconds()
		d.Advisor = &adv
	case EndpointMigrations:
		// No cached migration state: the typed degraded envelope alone.
	default:
		place := &PlaceResponse{}
		if req != nil && s.cache.bestEffort(req, place) {
			d.Place = place
		}
	}
	return Outcome{Status: StatusDegraded, Code: http.StatusServiceUnavailable,
		RetryAfter: retry, Degraded: d, Err: reason}
}

// serveAdmitted runs an admitted request on the calling handler
// goroutine: it waits FIFO for one of Workers slots (blocked channel
// senders queue in arrival order), re-checks the deadline, and calls
// the backend. A panic becomes this request's 500 alone. It always
// returns exactly one outcome and always settles the ticket.
func (s *Server) serveAdmitted(ctx context.Context, endpoint string, req *PlaceRequest, ticket *Ticket) (out Outcome) {
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		ticket.Cancel()
		return Outcome{Status: StatusDeadline, Code: http.StatusGatewayTimeout, Err: "deadline exceeded in queue"}
	}
	ticket.Start()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			out = Outcome{Status: StatusError, Code: http.StatusInternalServerError,
				Err: fmt.Sprintf("internal panic: %v", r)}
		}
		ticket.Done()
		<-s.slots
	}()
	if err := ctx.Err(); err != nil {
		// Deadline expired while the request waited for a slot: answer
		// without touching the backend.
		return Outcome{Status: StatusDeadline, Code: http.StatusGatewayTimeout, Err: "deadline exceeded in queue"}
	}
	return s.process(ctx, endpoint, req)
}

// serveOutcome writes one outcome as the HTTP response.
func (s *Server) serveOutcome(w http.ResponseWriter, o Outcome) {
	s.count(o)
	if o.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(o.RetryAfter)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(o.Code)
	var body any
	switch {
	case o.Place != nil:
		body = o.Place
	case o.Advisor != nil:
		body = o.Advisor
	case o.Migrations != nil:
		body = o.Migrations
	case o.Degraded != nil:
		body = o.Degraded
	default:
		body = errorBody{Error: o.Err}
	}
	// The header is already out; an encoding failure can only truncate
	// this one response body.
	_ = json.NewEncoder(w).Encode(body)
}

// retryAfterSeconds rounds a Retry-After up to whole seconds (minimum
// 1: "0" would invite an immediate retry storm).
func retryAfterSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.serveOutcome(w, Outcome{Status: StatusError, Code: http.StatusMethodNotAllowed, Err: "POST required"})
		return
	}
	var req PlaceRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		s.serveOutcome(w, Outcome{Status: StatusError, Code: http.StatusBadRequest, Err: "bad request: " + err.Error()})
		return
	}
	s.handleEndpoint(w, r, EndpointPlace, &req)
}

func (s *Server) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	s.handleEndpoint(w, r, EndpointAdvisor, nil)
}

func (s *Server) handleMigrations(w http.ResponseWriter, r *http.Request) {
	s.handleEndpoint(w, r, EndpointMigrations, nil)
}

// handleEndpoint is the shared HTTP edge: gate, deadline, serve.
func (s *Server) handleEndpoint(w http.ResponseWriter, r *http.Request, endpoint string, req *PlaceRequest) {
	workloadID := ""
	if req != nil {
		workloadID = req.WorkloadID
	}
	ticket, refusal, ok := s.gate(endpoint, workloadID)
	if !ok {
		s.serveOutcome(w, refusal)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
	defer cancel()
	s.serveOutcome(w, s.serveAdmitted(ctx, endpoint, req, ticket))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: the process answers, even mid-drain.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.DrainDeadline)))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "warming")
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	}
}
