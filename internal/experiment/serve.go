package experiment

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/core"
	"spotverse/internal/serve"
	"spotverse/internal/simclock"
)

// This file is the serving harness: it deploys a SpotVerse manager on a
// simulated environment for the placement daemon (cmd/spotverse-serve),
// generates deterministic request traces, and records live traffic back
// into replayable traces.

// ServeSim is a deployed serving environment: the simulated cloud, a
// SpotVerse manager on it, a serve backend over the manager, and the
// chaos injector wired into both layers.
type ServeSim struct {
	Env      *Env
	Manager  *core.SpotVerse
	Backend  *serve.SimBackend
	Injector *chaos.Injector
}

// serveSchedule builds the serving chaos plan. The intensity presets
// target multi-day batch runs; a serving trace lasts seconds of
// simulated time, so this schedule layers serve-path error rates and
// short brownouts on top, scaled to trace timebase.
func serveSchedule(i chaos.Intensity, start time.Time) chaos.Schedule {
	sched := chaos.Preset(i, start)
	switch i {
	case chaos.Low:
		sched.ErrorRates[chaos.ServiceServe] = chaos.Rates{Transient: 0.02}
	case chaos.Medium:
		sched.ErrorRates[chaos.ServiceServe] = chaos.Rates{Transient: 0.05, Throttle: 0.02}
		sched.Brownouts = append(sched.Brownouts, chaos.Brownout{
			Services: []string{chaos.ServiceServe},
			Window:   chaos.Window{From: start.Add(4 * time.Second), To: start.Add(8 * time.Second)},
		})
	case chaos.Severe:
		sched.ErrorRates[chaos.ServiceServe] = chaos.Rates{Transient: 0.10, Throttle: 0.05}
		sched.Brownouts = append(sched.Brownouts,
			chaos.Brownout{
				Services: []string{chaos.ServiceServe},
				Window:   chaos.Window{From: start.Add(3 * time.Second), To: start.Add(9 * time.Second)},
			},
			chaos.Brownout{
				Services: []string{chaos.ServiceServe},
				Window:   chaos.Window{From: start.Add(15 * time.Second), To: start.Add(18 * time.Second)},
			},
		)
	}
	return sched
}

// NewServeSim deploys a serving environment at the given seed and chaos
// intensity. The injector covers both the manager's control plane (the
// usual service interceptors) and the serve backend itself (the
// ServiceServe fault hook), so brownouts hit the daemon the way a
// regional API outage would.
func NewServeSim(seed int64, intensity chaos.Intensity) (*ServeSim, error) {
	env := NewEnv(seed)
	start := env.Engine.Now()
	inj := chaos.NewInjector(env.Engine, seed, serveSchedule(intensity, start))
	ApplyChaos(env, inj)
	mgr, err := NewSpotVerse(env, core.Config{
		InstanceType: catalog.M5XLarge,
		Threshold:    5,
		Seed:         seed,
		StaleAfter:   6 * time.Hour,
		StaleCutoff:  48 * time.Hour,
	})
	if err != nil {
		return nil, fmt.Errorf("serve sim: %w", err)
	}
	backend := serve.NewSimBackend(env.Engine, mgr)
	backend.SetFault(inj.ServiceFault(chaos.ServiceServe))
	return &ServeSim{Env: env, Manager: mgr, Backend: backend, Injector: inj}, nil
}

// Warm primes srv's degraded-mode cache, retrying through injected
// faults: a fresh deployment's first collection often brushes a
// transient error under the higher intensities, and each retry
// re-draws the per-service fault streams — deterministically, so the
// retry count for a given seed never varies.
func (s *ServeSim) Warm(srv *serve.Server, attempts int) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = srv.Warm(context.Background()); err == nil {
			return nil
		}
	}
	return fmt.Errorf("serve sim: warm failed after %d attempts: %w", attempts, err)
}

// Trace generation defaults.
const (
	// DefaultTraceQPS is the generated trace's mean arrival rate.
	DefaultTraceQPS = 100.0
	// traceShareAdvisor and traceShareMigrations split non-place
	// traffic; the rest (80%) is /v1/place.
	traceSharePlace   = 0.80
	traceShareAdvisor = 0.15
)

// GenerateServeTrace synthesizes a deterministic request trace: Poisson
// arrivals at qps, an 80/15/5 place/advisor/migrations endpoint mix,
// occasional multi-placement requests, and occasional region
// exclusions (a client that was just interrupted somewhere). Same
// (seed, n, qps) → byte-identical trace; the RNG is a dedicated
// simclock stream, so generating traces never perturbs any experiment.
func GenerateServeTrace(seed int64, n int, qps float64) []serve.TraceEntry {
	if qps <= 0 {
		qps = DefaultTraceQPS
	}
	rng := simclock.Stream(seed, "serve-trace")
	entries := make([]serve.TraceEntry, 0, n)
	at := 0.0
	for i := 0; i < n; i++ {
		if i > 0 {
			at += rng.Exp(1000.0 / qps)
		}
		e := serve.TraceEntry{AtMS: int64(at)}
		roll := rng.Float64()
		switch {
		case roll < traceSharePlace:
			e.Endpoint = serve.EndpointPlace
			e.WorkloadID = fmt.Sprintf("wl-%05d", i)
			if rng.Bool(0.10) {
				e.Count = 2 + rng.Intn(3)
			}
			if rng.Bool(0.05) {
				e.Exclude = []string{"us-east-1"}
			}
		case roll < traceSharePlace+traceShareAdvisor:
			e.Endpoint = serve.EndpointAdvisor
		default:
			e.Endpoint = serve.EndpointMigrations
		}
		entries = append(entries, e)
	}
	return entries
}

// ServeTraceRecorder implements serve.TraceSink over a buffered JSONL
// writer: every arrival the server's gate sees is stamped with its
// offset from recorder start and appended, producing a trace that
// ReadTrace accepts and Replay can re-drive. Safe for concurrent use —
// the HTTP edge records from many goroutines.
type ServeTraceRecorder struct {
	mu    sync.Mutex
	clk   serve.Clock
	start time.Time
	bw    *bufio.Writer
	last  int64
	n     int
	err   error
}

// NewServeTraceRecorder starts recording; offsets are measured with clk
// from this instant.
func NewServeTraceRecorder(w io.Writer, clk serve.Clock) *ServeTraceRecorder {
	return &ServeTraceRecorder{clk: clk, start: clk.Now(), bw: bufio.NewWriter(w)}
}

// Record implements serve.TraceSink.
func (r *ServeTraceRecorder) Record(e serve.TraceEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	at := r.clk.Now().Sub(r.start).Milliseconds()
	// Clamp to monotone non-decreasing: replay refuses unsorted traces,
	// and two goroutines racing the gate can observe equal clock reads
	// in either record order.
	if at < r.last {
		at = r.last
	}
	r.last = at
	e.AtMS = at
	line, err := marshalTraceEntry(&e)
	if err == nil {
		_, err = r.bw.Write(line)
	}
	if err != nil {
		r.err = fmt.Errorf("trace record: %w", err)
		return
	}
	r.n++
}

// Flush drains the buffer; use it as a serve OnDrain hook so SIGTERM
// persists the tail of the trace.
func (r *ServeTraceRecorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.bw.Flush()
}

// Recorded reports how many entries were written.
func (r *ServeTraceRecorder) Recorded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// marshalTraceEntry renders one JSONL line via serve.WriteTrace, so the
// recorder and the batch writer cannot drift in format.
func marshalTraceEntry(e *serve.TraceEntry) ([]byte, error) {
	var buf traceLineBuffer
	if err := serve.WriteTrace(&buf, []serve.TraceEntry{*e}); err != nil {
		return nil, err
	}
	return buf.b, nil
}

type traceLineBuffer struct{ b []byte }

func (t *traceLineBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	return len(p), nil
}
