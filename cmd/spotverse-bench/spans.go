package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/experiment"
	"spotverse/internal/serve"
	"spotverse/internal/strategy"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	Count  int   `json:"count"`
	TotalN int64 `json:"total_ns"`
	SelfN  int64 `json:"self_ns"`
}

// tracer records spans in memory and owns the timing decorators' tallies.
// A nil or disabled tracer makes every method a no-op, so the untraced
// path runs the same code without recording anything.
type tracer struct {
	on  bool
	t0  time.Time
	run int

	mu    sync.Mutex
	spans []span

	strategy callTally
	backend  latencies
	handler  latencies
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || !t.on || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// aggregate sums spans by name. A span's self time is its duration minus
// the part of it covered by the union of its children, so children that
// run in parallel are not subtracted twice.
func aggregate(spans []span) map[string]spanAgg {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanAgg)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		a := out[s.Name]
		a.Count++
		a.TotalN += s.End - s.Start
		a.SelfN += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = a
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// callTally counts calls into a layer and the time spent in the layer
// itself. Strategy calls arrive from every shard goroutine at once.
type callTally struct {
	calls atomic.Int64
	selfN atomic.Int64
}

// latencies keeps every call duration of one kind, for percentiles.
type latencies struct {
	mu sync.Mutex
	ns []int64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, d.Nanoseconds())
	l.mu.Unlock()
}

func (l *latencies) snapshot() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]float64, len(l.ns))
	for i, v := range l.ns {
		out[i] = float64(v)
	}
	return out
}

// timedStrategy wraps a placement strategy and times every decision. The
// time a strategy spends inside the relaunch callback it was handed is
// provisioning work of the cloud layer, so it is subtracted from the
// strategy's self time. The optional interfaces the experiment run engines
// probe for are forwarded, so a wrapped strategy behaves exactly like
// the bare one.
type timedStrategy struct {
	inner strategy.Strategy
	tally *callTally
}

var (
	_ experiment.CompletionObserver     = (*timedStrategy)(nil)
	_ experiment.RelaunchResolverTarget = (*timedStrategy)(nil)
)

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	start := time.Now()
	p, err := s.inner.PlaceInitial(ids)
	s.tally.calls.Add(1)
	s.tally.selfN.Add(time.Since(start).Nanoseconds())
	return p, err
}

func (s *timedStrategy) OnInterrupted(id string, current catalog.Region, relaunch strategy.RelaunchFunc) error {
	var inRelaunch time.Duration
	timed := func(p strategy.Placement) {
		begin := time.Now()
		relaunch(p)
		inRelaunch += time.Since(begin)
	}
	start := time.Now()
	err := s.inner.OnInterrupted(id, current, timed)
	s.tally.calls.Add(1)
	s.tally.selfN.Add((time.Since(start) - inRelaunch).Nanoseconds())
	return err
}

// OnCompleted forwards to strategies that learn from completions.
func (s *timedStrategy) OnCompleted(id string) {
	if obs, ok := s.inner.(experiment.CompletionObserver); ok {
		obs.OnCompleted(id)
	}
}

// SetRelaunchResolver forwards to strategies that rebuild relaunch
// closures after a controller restart.
func (s *timedStrategy) SetRelaunchResolver(fn func(id string) strategy.RelaunchFunc) {
	if t, ok := s.inner.(experiment.RelaunchResolverTarget); ok {
		t.SetRelaunchResolver(fn)
	}
}

// wrapStrategy returns s itself when tracing is off.
func (t *tracer) wrapStrategy(s strategy.Strategy) strategy.Strategy {
	if t == nil || !t.on {
		return s
	}
	return &timedStrategy{inner: s, tally: &t.strategy}
}

// timedBackend wraps the serve backend and times every call. Flush is
// forwarded so a draining server still reaches the backend's barrier.
type timedBackend struct {
	inner serve.Backend
	lat   *latencies
}

var _ serve.Flusher = (*timedBackend)(nil)

func (b *timedBackend) Place(ctx context.Context, req *serve.PlaceRequest, resp *serve.PlaceResponse) error {
	start := time.Now()
	err := b.inner.Place(ctx, req, resp)
	b.lat.add(time.Since(start))
	return err
}

func (b *timedBackend) Advisor(ctx context.Context) (*serve.AdvisorResponse, error) {
	start := time.Now()
	resp, err := b.inner.Advisor(ctx)
	b.lat.add(time.Since(start))
	return resp, err
}

func (b *timedBackend) Migrations(ctx context.Context) (*serve.MigrationsResponse, error) {
	start := time.Now()
	resp, err := b.inner.Migrations(ctx)
	b.lat.add(time.Since(start))
	return resp, err
}

func (b *timedBackend) Flush(ctx context.Context) error {
	if f, ok := b.inner.(serve.Flusher); ok {
		return f.Flush(ctx)
	}
	return nil
}

// wrapBackend returns b itself when tracing is off.
func (t *tracer) wrapBackend(b serve.Backend) serve.Backend {
	if t == nil || !t.on {
		return b
	}
	return &timedBackend{inner: b, lat: &t.backend}
}

// wrapHandler times every HTTP request the server handles, from the
// moment net/http hands it over to the moment the handler returns.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	if t == nil || !t.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.handler.add(time.Since(start))
	})
}
