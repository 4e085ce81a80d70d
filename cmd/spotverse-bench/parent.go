package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spotverse/internal/simclock"
)

// childEnv marks a process started by the benchmark as a child, so a
// test binary standing in for the benchmark dispatches to realMain.
const childEnv = "SPOTVERSE_BENCH_CHILD"

const (
	minReps   = 3
	minSetups = 25
	maxReps   = 500
	// seedCycle is how many distinct seeds a run's repetitions use: one
	// per repetition, so that no seed weighs twice in a run's medians.
	seedCycle    = maxReps
	mb           = 1e6
	stdoutMaxBuf = 256 << 20
)

// pass is one invocation's settings.
type pass struct {
	exe     string
	seed    int64
	seconds time.Duration
	quick   bool
	stderr  io.Writer
	golden  map[string]string // workload → expected hash at this seed
}

// childResult is one child process as the parent saw it.
type childResult struct {
	setup  time.Duration // exec to "ready"
	total  time.Duration // exec to "done"
	maxRSS float64       // bytes
	rep    *childReport

	// serve-live only: open-loop latencies and generator lag, the
	// closed-loop batch times, and the client's own tally.
	lat, lag   []time.Duration
	batches    []float64 // seconds
	sent       int
	failed     int
	clientErrs []string // a sample of the failed requests
	// checks lists violated invariants found by the parent.
	checks []string
}

// childMode selects what a child does after set-up.
type childMode int

const (
	runUnit   childMode = iota // run the unit once
	traceUnit                  // profile and trace the unit
	setupOnly                  // exit once ready: one more set-up sample
)

// spawn runs one child for w at seed and waits for it to exit.
func (p *pass) spawn(w workloadDef, seed int64, mode childMode) (res *childResult, err error) {
	args := []string{"-child", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", boolDigit(mode == traceUnit)}
	if p.quick {
		args = append(args, "-quick")
	}
	if mode == setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(p.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = p.stderr
	// A child outliving a killed benchmark would hold its port and memory.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	waited := false
	defer func() {
		if !waited {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), stdoutMaxBuf)
	res = &childResult{}
	ready, err := readMessage(sc)
	if err != nil || !ready.Ready {
		return nil, fmt.Errorf("%s: child sent no ready line: %v", w.name, err)
	}
	res.setup = time.Since(start)
	if mode == setupOnly {
		waited = true
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("%s: child: %w", w.name, err)
		}
		return res, nil
	}
	if w.live {
		// A traced daemon serves extra closed-loop phases: one cycle of
		// load costs the server too little CPU for a useful profile.
		extra := 0
		if mode == traceUnit {
			extra = pick(p.quick, 1, liveTraceRounds)
		}
		if err := p.driveLive(res, seed, ready.Addr, extra); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if _, err := io.WriteString(stdin, "stop\n"); err != nil {
			return nil, err
		}
	}
	done, err := readMessage(sc)
	if err != nil || done.Done == nil {
		return nil, fmt.Errorf("%s: child sent no done line: %v", w.name, err)
	}
	res.total = time.Since(start)
	res.rep = done.Done
	_, _ = io.Copy(io.Discard, stdout)
	stdin.Close()
	waited = true
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: child: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.maxRSS = float64(ru.Maxrss) * 1024
	}
	if w.live && res.rep.Stats != nil {
		res.checks = append(res.checks, checkStats(*res.rep.Stats, uint64(res.sent))...)
	}
	return res, nil
}

func readMessage(sc *bufio.Scanner) (message, error) {
	var m message
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return m, err
		}
		return m, io.ErrUnexpectedEOF
	}
	return m, json.Unmarshal(sc.Bytes(), &m)
}

// driveLive sends the serve-live load to the child's server: an
// open-loop phase at liveRate, then liveBatches closed-loop batches, then
// extra more closed-loop phases whose timings are not kept.
func (p *pass) driveLive(res *childResult, seed int64, addr string, extra int) error {
	nOpen, batch := pick(p.quick, liveOpenQuick, liveOpen), pick(p.quick, liveBatchQuick, liveBatch)
	reqs, err := buildRequests(seed, nOpen+liveBatches*batch)
	if err != nil {
		return err
	}
	c := newClient("http://"+addr, liveConns)
	defer c.close()
	if err := c.fetchRanking(); err != nil {
		return err
	}
	res.lat, res.lag = c.openLoop(reqs[:nOpen], time.Now().Add(5*time.Millisecond), arrivals(seed, nOpen, liveRate))
	closed := reqs[nOpen:]
	for i := 0; i < liveBatches; i++ {
		res.batches = append(res.batches, c.closedLoop(closed[i*batch:(i+1)*batch]).Seconds())
	}
	for i := 0; i < extra; i++ {
		c.closedLoop(closed)
	}
	res.sent = int(c.responses.Load())
	res.failed = c.failed
	res.clientErrs = c.failures
	return nil
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// outcome is one workload's result in a pass.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   []metric           `json:"metrics"`
	SpanAgg   map[string]spanAgg `json:"span_totals,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

func (o *outcome) add(name, unit string, v float64, n int, note string) {
	o.Metrics = append(o.Metrics, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

// check folds one child's failures and output hash into the outcome.
// The output of the run's own seed must match its golden digest, where
// one is pinned; repetitions at one seed must agree with each other.
func (p *pass) check(o *outcome, w workloadDef, r *childResult, seed int64, hashes map[int64]string) {
	bad := append(append([]string(nil), r.rep.Failures...), r.checks...)
	if w.live {
		o.Failures = append(append(o.Failures, bad...), r.clientErrs...)
		o.Attempted += r.sent
		o.Failed += r.failed + len(bad)
		return
	}
	want := p.golden[w.name]
	prev, seen := hashes[seed]
	switch {
	case seed == p.seed && want != "" && !p.quick && r.rep.Hash != want:
		bad = append(bad, fmt.Sprintf("output hash %.12s differs from golden %.12s at seed %d", r.rep.Hash, want, seed))
	case !seen:
		hashes[seed] = r.rep.Hash
	case r.rep.Hash != prev:
		bad = append(bad, fmt.Sprintf("output at seed %d differs between repetitions", seed))
	}
	o.Failures = append(o.Failures, bad...)
	o.Attempted += r.rep.Units
	if len(bad) > 0 {
		o.Failed++
	}
}

// subSeeds are the seeds a run's repetitions cycle through: the run's
// own seed first, then ones derived from it. The paper sweep's work
// varies by about ten percent from seed to seed (its allocation has a
// standard deviation of 11% of the mean over random seeds), so a run
// whose repetitions all used one seed would measure that seed, not the
// code.
func subSeeds(seed int64) []int64 {
	rng := simclock.Stream(seed, "bench-seeds")
	out := []int64{seed}
	for len(out) < seedCycle {
		out = append(out, rng.Int63())
	}
	return out
}

// sampler is the untraced pass of one workload: it runs children, each
// at the next seed of the cycle, until the workload's time budget is
// spent (at least minReps), then reports the medians. Set-up is sampled
// at least minSetups times: when the full children are fewer, set-up-only
// children run between them, so that the set-up samples spread over the
// whole run as the full ones do.
type sampler struct {
	w      workloadDef
	o      *outcome
	seeds  []int64
	hashes map[int64]string
	rs     []*childResult
	setup  []float64
	// spent is the time this workload's children took.
	spent time.Duration
}

func (p *pass) newSampler(w workloadDef) *sampler {
	return &sampler{w: w, o: &outcome{Workload: w.name, Seed: p.seed}, seeds: subSeeds(p.seed), hashes: map[int64]string{}}
}

func (p *pass) minimums() (reps, setups int) {
	if p.quick {
		return 1, 1
	}
	return minReps, minSetups
}

// step runs one full child and the set-up-only children that keep the
// set-up samples on pace to reach minSetups by the run's expected end.
func (s *sampler) step(p *pass) error {
	start := time.Now()
	defer func() { s.spent += time.Since(start) }()
	seed := s.seeds[len(s.rs)%len(s.seeds)]
	r, err := p.spawn(s.w, seed, runUnit)
	if err != nil {
		return err
	}
	p.check(s.o, s.w, r, seed, s.hashes)
	s.rs = append(s.rs, r)
	s.setup = append(s.setup, r.setup.Seconds())
	reps, setups := p.minimums()
	perChild := max((s.spent+time.Since(start))/time.Duration(len(s.rs)), time.Millisecond)
	expected := max(reps, int(p.seconds/perChild))
	return s.setupsUpTo(p, setups*len(s.rs)/expected)
}

func (s *sampler) setupsUpTo(p *pass, n int) error {
	for len(s.setup) < n {
		r, err := p.spawn(s.w, s.seeds[len(s.setup)%len(s.seeds)], setupOnly)
		if err != nil {
			return err
		}
		s.setup = append(s.setup, r.setup.Seconds())
	}
	return nil
}

// done reports whether the workload has its minimum of children and one
// more would overrun its budget.
func (s *sampler) done(p *pass) bool {
	reps, _ := p.minimums()
	n := len(s.rs)
	return n >= maxReps || (n >= reps && !fits(s.spent, n, p.seconds))
}

// measure runs the untraced pass of the workloads: their children in
// turn, one of each workload per round, until every workload's budget is
// spent. A stretch in which the machine runs slow thus lands on every
// workload of a pass rather than on whichever one it coincides with.
func (p *pass) measure(ws []workloadDef) ([]*outcome, error) {
	ss := make([]*sampler, len(ws))
	for i, w := range ws {
		ss[i] = p.newSampler(w)
	}
	for busy := true; busy; {
		busy = false
		for _, s := range ss {
			if s.done(p) {
				continue
			}
			busy = true
			if err := s.step(p); err != nil {
				return nil, err
			}
		}
	}
	outs := make([]*outcome, len(ss))
	for i, s := range ss {
		_, setups := p.minimums()
		if err := s.setupsUpTo(p, setups); err != nil {
			return nil, err
		}
		outs[i] = s.finish(p)
	}
	return outs, nil
}

// finish computes the workload's metrics from its children.
func (s *sampler) finish(p *pass) *outcome {
	w, o, rs, setup := s.w, s.o, s.rs, s.setup
	n := len(rs)
	col := func(f func(r *childResult) float64) []float64 {
		out := make([]float64, n)
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	o.add("setup_s", "s", median(setup), len(setup), "exec to ready")
	if w.live {
		batches := pooledBatches(rs)
		o.add("wall_s", "s", median(batches), len(batches),
			fmt.Sprintf("median closed-loop batch of %d requests over %d connections, all children pooled", pick(p.quick, liveBatchQuick, liveBatch), liveConns))
		o.add("p50_ms", "ms", median(col(openPct(50))), n,
			fmt.Sprintf("median over children; request latency from due time, open loop at %.0f req/s", liveRate))
	} else {
		o.add("wall_s", "s", median(col(func(r *childResult) float64 { return float64(r.rep.WallNs[0]) / 1e9 })), n, "ready to done")
		o.add("p50_ms", "ms", median(col(func(r *childResult) float64 { return r.total.Seconds() * 1e3 })), n, "exec to done")
	}
	o.add("peak_rss_mb", "MB", median(col(func(r *childResult) float64 { return r.maxRSS / mb })), n, "child ru_maxrss")
	o.add("alloc_mb", "MB", median(col(func(r *childResult) float64 { return float64(r.rep.AllocBytes) / mb })), n, "heap bytes allocated, ready to done")
	p.humanExtras(o, w, rs)
	return o
}

func pooledBatches(rs []*childResult) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.batches...)
	}
	return out
}

// openPct returns the p-th percentile of a child's open-loop latencies,
// in milliseconds.
func openPct(p float64) func(r *childResult) float64 {
	return func(r *childResult) float64 {
		lat := make([]float64, len(r.lat))
		for i, d := range r.lat {
			lat[i] = float64(d) / 1e6
		}
		return percentile(lat, p)
	}
}

// humanExtras adds lines that are printed, not gated: throughput, which
// reads better than a wall time, and the open-loop tail of serve-live.
func (p *pass) humanExtras(o *outcome, w workloadDef, rs []*childResult) {
	if w.live {
		var p90, lat, lag []float64
		for _, r := range rs {
			p90 = append(p90, openPct(90)(r))
			for i := range r.lat {
				lat = append(lat, float64(r.lat[i])/1e6)
				lag = append(lag, float64(r.lag[i])/1e6)
			}
		}
		batches := pooledBatches(rs)
		o.add("closed_rps", "req/s", float64(pick(p.quick, liveBatchQuick, liveBatch))/median(batches), len(batches), "batch size / median batch")
		perChild := len(rs[0].lat)
		o.add("open_p90_ms", "ms", median(p90), len(p90),
			fmt.Sprintf("median over children of p90 of %d requests%s", perChild, supportNote(90, perChild)))
		o.add("open_p99_ms", "ms", percentile(lat, 99), len(lat), "all children pooled"+supportNote(99, len(lat)))
		o.add("loadgen.lag_ms.p99", "ms", percentile(lag, 99), len(lag), "generator lateness")
		return
	}
	var per []float64
	for _, r := range rs {
		per = append(per, float64(w.items(p.quick))/(float64(r.rep.WallNs[0])/1e9))
	}
	o.add(w.itemName+"s_per_s", "1/s", median(per), len(per), "")
}

// fits reports whether one more repetition, as long as the average of
// the n that took spent, still ends within budget.
func fits(spent time.Duration, n int, budget time.Duration) bool {
	return spent+spent/time.Duration(n) <= budget
}

// supportNote flags a percentile of n samples that fewer than minBeyond
// samples lie above; such a number is printed, never gated.
func supportNote(pct float64, n int) string {
	if supported(pct, n) {
		return ""
	}
	return fmt.Sprintf(" (fewer than %d samples beyond)", minBeyond)
}

// traceLayers runs the traced pass of one workload: untraced children
// for a quarter of the budget (the resource counters and the overhead
// baseline), then one traced child whose profile and spans split the
// work across layers.
func (p *pass) traceLayers(w workloadDef) (*outcome, error) {
	o := &outcome{Workload: w.name, Seed: p.seed, Trace: true}
	hashes := map[int64]string{}
	var bases []*childResult
	start := time.Now()
	for {
		b, err := p.spawn(w, p.seed, runUnit)
		if err != nil {
			return nil, err
		}
		p.check(o, w, b, p.seed, hashes)
		bases = append(bases, b)
		if !fits(time.Since(start), len(bases), p.seconds/4) {
			break
		}
	}
	tr, err := p.spawn(w, p.seed, traceUnit)
	if err != nil {
		return nil, err
	}
	p.check(o, w, tr, p.seed, hashes)
	if tr.rep.ProfileSamples == 0 || tr.rep.ProfileCPU <= 0 {
		return nil, fmt.Errorf("%s: the traced child collected no profile samples", w.name)
	}
	units := float64(tr.rep.Units)
	items := float64(w.items(p.quick))
	b := bases[0].rep
	wallOf := func(r *childResult) float64 {
		if w.live {
			return median(r.batches)
		}
		return float64(r.rep.WallNs[0]) / 1e9
	}
	baseMedian := func(f func(r *childResult) float64) float64 {
		xs := make([]float64, len(bases))
		for i, r := range bases {
			xs[i] = f(r)
		}
		return median(xs)
	}

	for _, l := range layers {
		o.add(l+".cpu_samples", "count", float64(tr.rep.Samples[l])/units, tr.rep.Units, "CPU profile samples per unit")
	}
	count := func(name string) float64 { return b.Counts[name] / float64(b.Units) }
	o.add("simclock.events", "count", count("simclock.events"), 1, "")
	o.add("cloud.launches", "count", count("cloud.launches"), 1, "")
	o.add("cloud.reclaims", "count", count("cloud.reclaims"), 1, "")
	o.add("cloud.on_demand", "count", count("cloud.on_demand"), 1, "")
	o.add("strategy.calls", "count", float64(tr.rep.StrategyCalls)/units, tr.rep.Units, "")
	o.add("serve.backend_calls", "count", float64(len(tr.rep.BackendNs))/units, tr.rep.Units, "")
	var hw, shed float64
	if b.Stats != nil {
		hw, shed = float64(b.Stats.QueueHighWater), float64(b.Stats.Shed)
	}
	o.add("serve.queue_high_water", "count", hw, 1, "")
	o.add("serve.shed", "count", shed, 1, "")
	o.add("runtime.gc_cycles", "count", float64(b.GCCycles), 1, "")
	o.add("runtime.allocs_per_item", "count", float64(b.AllocObjects)/items, 1, "per "+w.itemName)
	o.add("runtime.alloc_B_per_item", "B", float64(b.AllocBytes)/items, 1, "per "+w.itemName)
	n := len(bases)
	o.add("runtime.gc_cpu_s", "s", baseMedian(func(r *childResult) float64 { return r.rep.GCCPUSeconds }), n, "")
	o.add("host.cpu_s", "s", baseMedian(func(r *childResult) float64 { return r.rep.CPUSeconds }), n, "user+sys, ready to done")
	o.add("host.parallel_eff", "ratio", baseMedian(func(r *childResult) float64 {
		return r.rep.CPUSeconds / (float64(r.rep.WallNs[0]) / 1e9 * float64(r.rep.GOMAXPROCS))
	}), n, fmt.Sprintf("cpu / (wall x %d procs)", b.GOMAXPROCS))
	// Later traced units run in a warm process; only the first compares
	// with the untraced children's single cold units.
	o.add("trace.overhead_frac", "ratio", wallOf(tr)/baseMedian(wallOf)-1, n, "first traced unit / untraced median - 1")
	rate := float64(tr.rep.ProfileSamples) / tr.rep.ProfileCPU
	o.add("profile.coverage", "ratio", rate/profileHz, int(tr.rep.ProfileSamples), fmt.Sprintf("samples delivered / asked for: %.0f of %d Hz", rate, profileHz))

	// Printed and written to the trace file only: times that are zero on
	// the workloads that never enter the layer. A layer's CPU is its
	// share of the samples times the CPU the profiled process used.
	cpuOf := func(l string) float64 { return float64(tr.rep.Samples[l]) / rate / units }
	for _, l := range layers {
		o.add(l+".cpu_s", "s", cpuOf(l), tr.rep.Units, "")
	}
	o.add("profile.cpu_s", "s", tr.rep.ProfileCPU/units, tr.rep.Units, "rusage CPU while profiling, set-up included")
	// Per-event cost means something only where events are the work.
	if ev := count("simclock.events"); ev >= 1000 {
		o.add("simclock.ns_per_event", "ns", cpuOf("simclock")*1e9/ev, 1, "simclock CPU / events")
	}
	o.add("strategy.self_s", "s", float64(tr.rep.StrategySelfNs)/1e9/units, tr.rep.Units, "decorator, relaunch callbacks excluded")
	names := make([]string, 0, len(tr.rep.SpanAgg))
	for name := range tr.rep.SpanAgg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := tr.rep.SpanAgg[name]
		o.add(name+"_s", "s", float64(a.TotalN)/1e9/units, a.Count, fmt.Sprintf("span; self %.4fs", float64(a.SelfN)/1e9/units))
	}
	if len(tr.rep.HandlerNs) > 0 {
		o.add("serve.handler_us.p50", "us", percentile(tr.rep.HandlerNs, 50)/1e3, len(tr.rep.HandlerNs), "middleware span")
		o.add("serve.handler_us.p99", "us", percentile(tr.rep.HandlerNs, 99)/1e3, len(tr.rep.HandlerNs), "middleware span"+supportNote(99, len(tr.rep.HandlerNs)))
	}
	if len(tr.rep.BackendNs) > 0 {
		o.add("serve.backend_us.p50", "us", percentile(tr.rep.BackendNs, 50)/1e3, len(tr.rep.BackendNs), "decorator")
	}
	if w.live {
		var lag []float64
		for _, r := range bases {
			for _, d := range r.lag {
				lag = append(lag, float64(d)/1e6)
			}
		}
		o.add("loadgen.lag_ms", "ms", percentile(lag, 99), len(lag), "p99 generator lateness")
	}
	o.SpanAgg = tr.rep.SpanAgg
	o.Spans = tr.rep.Spans
	return o, nil
}

// print writes an outcome's human-readable block.
func (o *outcome) print(w io.Writer) {
	kind := "end-to-end"
	if o.Trace {
		kind = "per-layer"
	}
	status := "correct"
	if o.Failed > 0 || len(o.Failures) > 0 {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d): %s, %d attempted, %d failed\n", o.Workload, kind, o.Seed, status, o.Attempted, o.Failed)
	for _, f := range o.Failures {
		fmt.Fprintf(w, "   check failed: %s\n", f)
	}
	for _, m := range o.Metrics {
		fmt.Fprintf(w, "   %-34s %14s %-6s n=%-6d %s\n", m.Name, formatValue(m.Value), m.Unit, m.N, m.Note)
	}
}

func formatValue(v float64) string {
	if math.Abs(v) >= 1e5 || v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// resultLine is the machine-readable last line of a pass.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the result line from the metrics BENCHMARK.json
// names: end-to-end on an untraced pass, per-layer on a traced one.
// With several workloads, metric names are prefixed "<workload>/".
func summarize(outs []*outcome) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, o := range outs {
		line.Attempted += o.Attempted
		line.Failed += o.Failed
		if o.Failed > 0 || len(o.Failures) > 0 {
			line.Correct = false
		}
		gated := endToEnd
		if o.Trace {
			gated = perLayer
		}
		for _, m := range o.Metrics {
			if _, ok := findSpec(gated, m.Name); !ok {
				continue
			}
			name := m.Name
			if len(outs) > 1 {
				name = o.Workload + "/" + name
			}
			line.Metrics[name] = valueUnit{Value: m.Value, Unit: m.Unit}
		}
	}
	return line
}

// runPass measures the named workloads (all when names is empty) and
// prints each one's block. It returns the outcomes.
func runPass(p *pass, names []string, traced bool, stdout io.Writer) ([]*outcome, error) {
	var ws []workloadDef
	for _, w := range workloads {
		if len(names) == 0 || contains(names, w.name) {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return nil, errors.New("no workload selected")
	}
	if !traced {
		outs, err := p.measure(ws)
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			o.print(stdout)
		}
		return outs, nil
	}
	var outs []*outcome
	for _, w := range ws {
		o, err := p.traceLayers(w)
		if err != nil {
			return outs, err
		}
		o.print(stdout)
		outs = append(outs, o)
	}
	return outs, nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
