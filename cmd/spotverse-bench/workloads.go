package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/experiment"
	"spotverse/internal/serve"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// workloadDef describes one benchmark workload. Why each exists is
// recorded in README.md and BENCHMARK.json.
type workloadDef struct {
	name string
	// live workloads are driven over HTTP by the parent process; the
	// others run one deterministic unit per child, whose output is pinned
	// in testdata/golden.json.
	live bool
	// items is how many units of user work one run of the unit is
	// (experiments, simulated workloads or requests), for per-item
	// normalisation; itemName names them.
	items    func(quick bool) int
	itemName string
}

// Sizes. quick shrinks every workload for the smoke test.
const (
	fleetSize      = 100000
	fleetSizeQuick = 2000

	replayRequests      = 100000
	replayRequestsQuick = 2000

	// Live load: an open-loop phase at liveRate for liveOpen requests,
	// then a closed-loop phase of liveBatches batches of liveBatch
	// requests. wall_s is the median batch over a run's children: one
	// batch takes tens of milliseconds, and the machine's speed wanders by
	// more than ten percent within a second, so the median of a run's few
	// hundred short batches repeats from run to run better than one long
	// batch per child can. The open-loop phase lasts half a second, so
	// that a run holds about 30 children, over which p50_ms and
	// peak_rss_mb are medians.
	liveRate       = 4000.0
	liveOpen       = 2000
	liveBatch      = 1000
	liveBatches    = 10
	liveOpenQuick  = 400
	liveBatchQuick = 200
	liveConns      = 2
	// liveTraceRounds is how many extra closed-loop phases the traced
	// pass sends, for about 2,000 profile samples of the server.
	liveTraceRounds = 26
	// liveLimiterRate lifts the serve limiter far above the offered load:
	// the 200 units/s default would cap the daemon near 235 req/s and the
	// benchmark would measure the limiter instead of the code.
	liveLimiterRate = 1e6

	// sweepWorkers and the fleet's shard count are fixed, not read from
	// the host, so results compare across machines. The fleet runs its
	// shards on one worker: its children take seconds each, so a run holds
	// only a few, and two fleet workers on a two-CPU machine vary by 12%
	// from child to child (one worker: 5%), because a pause of either CPU
	// holds up the join. Two shards keep the shard merge on the measured
	// path.
	sweepWorkers = 2
	fleetShards  = 2

	warmAttempts = 20
)

var workloads = []workloadDef{
	{name: "paper-sweep", itemName: "experiment",
		items: func(bool) int { return len(sweepOrder) }},
	{name: "fleet-100k", itemName: "workload",
		items: func(q bool) int { return len(fleetArms) * pick(q, fleetSizeQuick, fleetSize) }},
	{name: "serve-live", live: true, itemName: "request",
		items: func(q bool) int {
			return pick(q, liveOpenQuick, liveOpen) + liveBatches*pick(q, liveBatchQuick, liveBatch)
		}},
	{name: "serve-replay", itemName: "request",
		items: func(q bool) int { return pick(q, replayRequestsQuick, replayRequests) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func pick(quick bool, small, full int) int {
	if quick {
		return small
	}
	return full
}

// unit is a workload's in-process body. A child calls prepare (the
// set-up before "ready"), then run (the measured work) once, or
// repeatedly with a fresh prepare in between on a traced pass.
type unit interface {
	prepare(t *tracer) error
	// run does the measured work and returns the output bytes that are
	// hashed and pinned; it appends any violated check to rep.Failures.
	run(t *tracer, root int, rep *childReport) ([]byte, error)
	close() error
}

func newUnit(name string, seed int64, quick bool, stdin io.Reader) (unit, error) {
	switch name {
	case "paper-sweep":
		return &sweepUnit{seed: seed}, nil
	case "fleet-100k":
		return &fleetUnit{seed: seed, size: pick(quick, fleetSizeQuick, fleetSize)}, nil
	case "serve-replay":
		return &replayUnit{seed: seed, n: pick(quick, replayRequestsQuick, replayRequests)}, nil
	case "serve-live":
		return &liveUnit{seed: seed, stdin: bufio.NewReader(stdin)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---------------------------------------------------------------------
// paper-sweep: the 11 experiments of `spotverse-experiments -exp all`.
// ---------------------------------------------------------------------

// sweepOrder is the -exp all order of cmd/spotverse-experiments.
var sweepOrder = []string{"table1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10", "table4", "ext", "chaos"}

type sweepUnit struct{ seed int64 }

// prepare installs a fresh market-snapshot store, so every unit
// materialises its market segments cold, as one CLI invocation does.
func (u *sweepUnit) prepare(*tracer) error {
	experiment.SetWorkers(sweepWorkers)
	experiment.SetMarketCache(experiment.DefaultMarketCacheSegments)
	return nil
}

// run renders the experiments concurrently into per-experiment buffers
// and joins them in sweep order, as the CLI does with more than one
// worker; the bytes equal `-exp all` at any worker count.
func (u *sweepUnit) run(t *tracer, root int, _ *childReport) ([]byte, error) {
	bufs, err := experiment.Gather(len(sweepOrder), func(i int) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		id := t.begin("experiment."+sweepOrder[i], root)
		err := runExperiment(&buf, sweepOrder[i], u.seed)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sweepOrder[i], err)
		}
		fmt.Fprintln(&buf)
		return &buf, nil
	})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	for _, b := range bufs {
		out.Write(b.Bytes())
	}
	return out.Bytes(), nil
}

func (u *sweepUnit) close() error { return nil }

// runExperiment renders one experiment exactly as the CLI's runner of
// the same name does (without CSV side files).
func runExperiment(w io.Writer, name string, seed int64) error {
	switch name {
	case "table1":
		rows, err := experiment.Table1(seed)
		if err != nil {
			return err
		}
		return experiment.RenderTable1(w, rows)
	case "fig2":
		series, err := experiment.Fig2(seed, 90)
		if err != nil {
			return err
		}
		return experiment.RenderFig2(w, series)
	case "fig3":
		results, err := experiment.Fig3(seed)
		if err != nil {
			return err
		}
		return experiment.RenderFig3(w, results)
	case "fig4":
		heat, avgs, err := experiment.Fig4(seed, 180)
		if err != nil {
			return err
		}
		return experiment.RenderFig4(w, heat, avgs)
	case "fig7":
		results, err := experiment.Fig7(seed)
		if err != nil {
			return err
		}
		return experiment.RenderFig7(w, results)
	case "fig8":
		types, err := experiment.Fig8(seed, experiment.Fig8TypeSet)
		if err != nil {
			return err
		}
		if err := experiment.RenderFig8(w, "Figure 8a/8b — instance types (standard general workload)", types); err != nil {
			return err
		}
		sizes, err := experiment.Fig8(seed, experiment.Fig8SizeSet)
		if err != nil {
			return err
		}
		return experiment.RenderFig8(w, "Figure 8c/8d — m5 family sizes (standard general workload)", sizes)
	case "fig9":
		results, err := experiment.Fig9(seed)
		if err != nil {
			return err
		}
		return experiment.RenderFig9(w, results)
	case "fig10":
		cells, err := experiment.Fig10(seed)
		if err != nil {
			return err
		}
		selection, err := experiment.Table3Selection(seed)
		if err != nil {
			return err
		}
		return experiment.RenderFig10(w, cells, selection)
	case "table4":
		res, err := experiment.Table4(seed)
		if err != nil {
			return err
		}
		return experiment.RenderTable4(w, res)
	case "ext":
		pred, err := experiment.ExtPredictive(seed, 24)
		if err != nil {
			return err
		}
		ckpt, err := experiment.ExtCheckpointStores(seed, 20)
		if err != nil {
			return err
		}
		scoring, err := experiment.ExtScoringModes(seed, 20)
		if err != nil {
			return err
		}
		return experiment.RenderExtensions(w, pred, ckpt, scoring)
	case "chaos":
		rows, err := experiment.Resilience(seed)
		if err != nil {
			return err
		}
		return experiment.RenderResilience(w, rows)
	}
	return fmt.Errorf("unknown experiment %q", name)
}

// ---------------------------------------------------------------------
// fleet-100k: the `-exp fleet` sweep cell at 100k, both arms.
// ---------------------------------------------------------------------

// fleetArms are the two arms of `-exp fleet`, built as the sweep builds
// them.
var fleetArms = []struct {
	name  string
	build func(env *experiment.Env) (strategy.Strategy, error)
}{
	{"single-region", func(env *experiment.Env) (strategy.Strategy, error) {
		s, err := baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, experiment.BaselineRegionM5XLarge)
		if err != nil {
			return nil, err
		}
		return s, nil
	}},
	{"skypilot", func(env *experiment.Env) (strategy.Strategy, error) {
		s, err := baselines.NewSkyPilotLike(env.Engine, env.Market, catalog.M5XLarge)
		if err != nil {
			return nil, err
		}
		return s, nil
	}},
}

type fleetUnit struct {
	seed   int64
	size   int
	fleets []*workload.FleetState
}

// prepare generates one fleet per arm (a run mutates its fleet) and
// installs a fresh market store.
func (u *fleetUnit) prepare(t *tracer) error {
	experiment.SetWorkers(1)
	experiment.SetMarketCache(experiment.DefaultMarketCacheSegments)
	u.fleets = u.fleets[:0]
	for range fleetArms {
		id := t.begin("workload.generate", -1)
		f, err := workload.GenerateFleet(simclock.Stream(u.seed, "wl-standard"),
			workload.GenOptions{Kind: workload.KindStandard, Count: u.size})
		t.end(id)
		if err != nil {
			return err
		}
		u.fleets = append(u.fleets, f)
	}
	return nil
}

// run runs both arms, each partitioned into fleetShards shards, and
// renders the sweep table. Like `-exp fleet`, it
// simulates the cloud and market of experiment.FleetSeed; only the fleet
// comes from the benchmark's seed, so the work varies little from seed
// to seed, and at seed 42 the bytes equal
// `spotverse-experiments -exp fleet -fleet <size>`.
func (u *fleetUnit) run(t *tracer, root int, rep *childReport) ([]byte, error) {
	cells, err := experiment.Gather(len(fleetArms), func(i int) (experiment.FleetCell, error) {
		arm := fleetArms[i]
		id := t.begin("experiment.run_fleet", root)
		res, err := experiment.RunFleetSharded(experiment.FleetSeed, experiment.FleetShardedConfig{
			Fleet: u.fleets[i],
			NewStrategy: func(env *experiment.Env) (strategy.Strategy, error) {
				s, err := arm.build(env)
				if err != nil {
					return nil, err
				}
				return t.wrapStrategy(s), nil
			},
			InstanceType:    catalog.M5XLarge,
			AllowIncomplete: true,
			Shards:          fleetShards,
			ProfLabel:       fmt.Sprintf("fleet-%s-%d", arm.name, u.size),
		})
		t.end(id)
		if err != nil {
			return experiment.FleetCell{}, fmt.Errorf("fleet %s n=%d: %w", arm.name, u.size, err)
		}
		return experiment.FleetCell{Arm: arm.name, Size: u.size, Res: res}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		rep.Failures = append(rep.Failures, checkFleet(c.Arm, c.Res)...)
		rep.add("simclock.events", float64(c.Res.EventsFired))
		rep.add("cloud.reclaims", float64(c.Res.Interruptions))
		rep.add("cloud.on_demand", float64(c.Res.OnDemandLaunches))
		for _, n := range c.Res.LaunchesByRegion {
			rep.add("cloud.launches", float64(n))
		}
	}
	var out bytes.Buffer
	if err := experiment.RenderFleet(&out, cells); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

func (u *fleetUnit) close() error { return nil }

// checkFleet verifies the conservation laws every FleetResult of the
// stateless fleet arms obeys.
func checkFleet(arm string, r *experiment.FleetResult) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("fleet %s: ", arm)+fmt.Sprintf(format, args...))
	}
	if s := sum(r.CompletionsPerInterval); s != r.Completed {
		fail("per-interval completions %d != completed %d", s, r.Completed)
	}
	if s := sum(r.InterruptionsPerInterval); s != r.Interruptions {
		fail("per-interval interruptions %d != interruptions %d", s, r.Interruptions)
	}
	byRegion := 0
	for _, n := range r.InterruptionsByRegion {
		byRegion += n
	}
	if byRegion != r.Interruptions {
		fail("per-region interruptions %d != interruptions %d", byRegion, r.Interruptions)
	}
	if want := uint64(r.Completed + r.Interruptions); r.EventsFired != want {
		fail("events fired %d != completed + interruptions %d", r.EventsFired, want)
	}
	if total := r.InstanceCostUSD + r.ServiceCostUSD; math.Abs(r.TotalCostUSD-total) > 1e-9*math.Max(1, math.Abs(total)) {
		fail("total cost %.6f != instance %.6f + service %.6f", r.TotalCostUSD, r.InstanceCostUSD, r.ServiceCostUSD)
	}
	return bad
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// ---------------------------------------------------------------------
// serve-replay: `spotverse-serve -replay` of a generated trace.
// ---------------------------------------------------------------------

type replayUnit struct {
	seed    int64
	n       int
	entries []serve.TraceEntry
	sim     *experiment.ServeSim
	srv     *serve.Server
}

// prepare builds the trace once and a freshly deployed, warmed
// simulation per unit: a replay advances simulated time, so a second
// replay on the same deployment would see a different market.
func (u *replayUnit) prepare(t *tracer) error {
	if u.entries == nil {
		id := t.begin("experiment.generate_trace", -1)
		u.entries = experiment.GenerateServeTrace(u.seed, u.n, experiment.DefaultTraceQPS)
		t.end(id)
	}
	id := t.begin("experiment.new_serve_sim", -1)
	defer t.end(id)
	sim, err := experiment.NewServeSim(u.seed, chaos.Off)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Clock: sim.Env.Engine}, t.wrapBackend(sim.Backend))
	if err != nil {
		return err
	}
	if err := sim.Warm(srv, warmAttempts); err != nil {
		return err
	}
	u.sim, u.srv = sim, srv
	return nil
}

func (u *replayUnit) run(t *tracer, root int, rep *childReport) ([]byte, error) {
	eng := u.sim.Env.Engine
	fired := eng.Fired()
	var out bytes.Buffer
	id := t.begin("serve.replay", root)
	sum, err := u.srv.Replay(eng, u.entries, serve.ReplayOptions{Out: &out})
	t.end(id)
	if err != nil {
		return nil, err
	}
	rep.add("simclock.events", float64(eng.Fired()-fired))
	st := u.srv.Stats()
	rep.Stats = &st
	outcomes := sum.OK + sum.Degraded + sum.Shed + sum.Deadline + sum.Errors
	if sum.Requests != len(u.entries) || outcomes != sum.Requests {
		rep.Failures = append(rep.Failures, fmt.Sprintf("replay: %d entries, %d requests, %d outcomes", len(u.entries), sum.Requests, outcomes))
	}
	rep.Failures = append(rep.Failures, checkStats(st, uint64(sum.Requests))...)
	return out.Bytes(), nil
}

func (u *replayUnit) close() error { return nil }

// checkStats verifies a server answered every request exactly once.
func checkStats(st serve.Stats, seen uint64) []string {
	var bad []string
	if st.Requests != seen {
		bad = append(bad, fmt.Sprintf("serve: %d responses seen, server counted %d requests", seen, st.Requests))
	}
	if n := st.OK + st.Degraded + st.Shed + st.Deadline + st.Errors; n != st.Requests {
		bad = append(bad, fmt.Sprintf("serve: %d outcomes for %d requests", n, st.Requests))
	}
	return bad
}

// ---------------------------------------------------------------------
// serve-live: the placement daemon on a loopback port.
// ---------------------------------------------------------------------

// wallClock is the live daemon's time source, as in cmd/spotverse-serve.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

type liveUnit struct {
	seed     int64
	stdin    *bufio.Reader
	srv      *serve.Server
	hs       *http.Server
	addr     string
	serveErr chan error
}

// prepare deploys and warms the simulation, then listens on an
// ephemeral loopback port. A live server never advances simulated time,
// so the backend stays warm and memoised for the whole unit.
func (u *liveUnit) prepare(t *tracer) error {
	sim, err := experiment.NewServeSim(u.seed, chaos.Off)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{RatePerSec: liveLimiterRate, Clock: wallClock{}}, t.wrapBackend(sim.Backend))
	if err != nil {
		return err
	}
	if err := sim.Warm(srv, warmAttempts); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	u.srv, u.addr = srv, ln.Addr().String()
	u.hs = &http.Server{Handler: t.wrapHandler(srv.Handler())}
	u.serveErr = make(chan error, 1)
	go func() { u.serveErr <- u.hs.Serve(ln) }()
	return nil
}

// run serves until the parent, having sent all its load, writes a line
// on stdin.
func (u *liveUnit) run(_ *tracer, _ int, rep *childReport) ([]byte, error) {
	if _, err := u.stdin.ReadString('\n'); err != nil {
		return nil, fmt.Errorf("serve-live: waiting for stop: %w", err)
	}
	st := u.srv.Stats()
	rep.Stats = &st
	return nil, nil
}

// close drains the server as SIGTERM does in cmd/spotverse-serve.
func (u *liveUnit) close() error {
	if u.hs == nil {
		return nil
	}
	dctx, cancel := context.WithTimeout(context.Background(), serve.DefaultDrainDeadline)
	defer cancel()
	err := u.srv.Drain(dctx)
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if serr := u.hs.Shutdown(sctx); serr != nil {
		err = errors.Join(err, serr)
	}
	if serr := <-u.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}
