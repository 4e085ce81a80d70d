package spotverse

// Serving-path benchmarks for cmd/spotverse-serve: the warm /v1/place
// hot path (sustained QPS, tail latency, allocation count) and the
// deterministic overload replay pipeline. Run with `go test -bench`;
// the end-to-end serving record is spotverse-bench (`make bench`).

import (
	"context"
	"sort"
	"testing"
	"time"

	"spotverse/internal/chaos"
	"spotverse/internal/experiment"
	"spotverse/internal/serve"
)

// benchServeSim deploys a chaos-free serving environment with a warmed
// server; failures abort the benchmark.
func benchServeSim(b *testing.B, cfg serve.Config) (*experiment.ServeSim, *serve.Server) {
	b.Helper()
	sim, err := experiment.NewServeSim(benchSeed, chaos.Off)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Clock = sim.Env.Engine
	srv, err := serve.New(cfg, sim.Backend)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Warm(srv, 5); err != nil {
		b.Fatal(err)
	}
	return sim, srv
}

// BenchmarkServePlaceWarm drives the warm /v1/place backend path —
// memoized advisor snapshot, round-robin spread, in-place response
// fill — and reports sustained QPS plus wall-clock p50/p99 per
// placement. The warm path must stay within a few allocs/op.
func BenchmarkServePlaceWarm(b *testing.B) {
	sim, _ := benchServeSim(b, serve.Config{Workers: 4, RatePerSec: 1e9})
	ctx := context.Background()
	req := serve.PlaceRequest{WorkloadID: "bench"}
	var resp serve.PlaceResponse
	if err := sim.Backend.Place(ctx, &req, &resp); err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := sim.Backend.Place(ctx, &req, &resp); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	elapsed := b.Elapsed()
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		b.ReportMetric(float64(lat[n/2].Nanoseconds())/1e3, "p50_us")
		b.ReportMetric(float64(lat[n*99/100].Nanoseconds())/1e3, "p99_us")
	}
}

// BenchmarkServeReplayOverload runs the deterministic overload replay —
// 5000 requests at ~4x the admission-controlled service rate — and
// reports wall-clock replay throughput plus the simulated p99 of
// answered requests. Environment construction sits outside the timer;
// the measured work is the gate pipeline + virtual worker engine.
func BenchmarkServeReplayOverload(b *testing.B) {
	const n = 5000
	trace := experiment.GenerateServeTrace(benchSeed, n, 600)
	cfg := serve.Config{
		Workers:          4,
		QueueDepth:       32,
		RatePerSec:       100000,
		Deadline:         5 * time.Second,
		MaxEstimatedWait: 500 * time.Millisecond,
		ServiceTime:      25 * time.Millisecond,
	}
	var sum *serve.ReplaySummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim, srv := benchServeSim(b, cfg)
		b.StartTimer()
		var err error
		sum, err = srv.Replay(sim.Env.Engine, trace, serve.ReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	elapsed := b.Elapsed()
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/elapsed.Seconds(), "req/s")
	}
	if sum != nil {
		b.ReportMetric(float64(sum.P99MS), "sim_p99_ms")
		b.ReportMetric(float64(sum.Shed)/float64(sum.Requests), "shed_frac")
	}
}
