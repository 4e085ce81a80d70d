package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"spotverse/internal/serve"
)

// A child process runs one workload unit and reports on its stdout, one
// JSON message per line: {"ready":...} once set-up is done, then
// {"done":...}. Everything else the child prints goes to stderr.

const (
	// profileHz is the CPU sampling rate the traced pass asks for.
	profileHz = 1000
	// tracedSamples is how many samples a traced child collects before it
	// stops repeating its unit.
	tracedSamples      = 2000
	tracedSamplesQuick = 100
	maxTracedUnits     = 50
)

type message struct {
	Ready bool         `json:"ready,omitempty"`
	Addr  string       `json:"addr,omitempty"`
	Done  *childReport `json:"done,omitempty"`
}

// childReport is what a child measured. Resource figures are deltas over
// the measured units (ready to done), never over set-up.
type childReport struct {
	Units      int      `json:"units"`
	WallNs     []int64  `json:"wall_ns"`
	Hash       string   `json:"hash"`
	Failures   []string `json:"failures,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs"`

	CPUSeconds   float64 `json:"cpu_s"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	GCCycles     uint64  `json:"gc_cycles"`
	GCCPUSeconds float64 `json:"gc_cpu_s"`

	// Counts are simulated quantities summed over units.
	Counts map[string]float64 `json:"counts"`
	Stats  *serve.Stats       `json:"stats,omitempty"`

	// Traced pass only.
	Samples        map[string]int64   `json:"samples,omitempty"`
	ProfileSamples int64              `json:"profile_samples,omitempty"`
	ProfileCPU     float64            `json:"profile_cpu_s,omitempty"`
	Spans          []span             `json:"spans,omitempty"`
	SpanAgg        map[string]spanAgg `json:"span_agg,omitempty"`
	StrategyCalls  int64              `json:"strategy_calls,omitempty"`
	StrategySelfNs int64              `json:"strategy_self_ns,omitempty"`
	BackendNs      []float64          `json:"backend_ns,omitempty"`
	HandlerNs      []float64          `json:"handler_ns,omitempty"`
}

func (r *childReport) add(name string, v float64) { r.Counts[name] += v }

// runChild is the child process's main: set up, say ready, run the unit
// (repeatedly on a traced pass, until enough samples were profiled),
// report.
func runChild(name string, seed int64, quick, traced, setupOnly bool, stdin io.Reader, stdout io.Writer) error {
	t := newTracer(traced)
	prof := &profiler{on: traced, samples: map[string]int64{}}
	target := int64(tracedSamples)
	if quick {
		target = tracedSamplesQuick
	}
	if err := prof.start(); err != nil {
		return err
	}
	u, err := newUnit(name, seed, quick, stdin)
	if err != nil {
		return err
	}
	if err := u.prepare(t); err != nil {
		return err
	}
	ready := message{Ready: true}
	_, live := u.(*liveUnit)
	if live {
		ready.Addr = u.(*liveUnit).addr
	}
	if err := send(stdout, ready); err != nil {
		return err
	}
	if setupOnly {
		return u.close()
	}

	rep := &childReport{Counts: map[string]float64{}, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	before := readRuntime()
	cpu0 := processCPU()
	for {
		t.run = rep.Units
		root := t.begin("unit", -1)
		start := time.Now()
		out, err := u.run(t, root, rep)
		wall := time.Since(start)
		t.end(root)
		if err != nil {
			return err
		}
		rep.Units++
		rep.WallNs = append(rep.WallNs, wall.Nanoseconds())
		sum := sha256.Sum256(out)
		h := hex.EncodeToString(sum[:])
		if rep.Hash == "" {
			rep.Hash = h
		} else if h != rep.Hash {
			rep.Failures = append(rep.Failures, fmt.Sprintf("unit %d output differs from unit 0", rep.Units-1))
		}
		if err := prof.stop(); err != nil {
			return err
		}
		if !traced || live || prof.total >= target || rep.Units >= maxTracedUnits {
			break
		}
		if err := prof.start(); err != nil {
			return err
		}
		if err := u.prepare(t); err != nil {
			return err
		}
	}
	after := readRuntime()
	rep.CPUSeconds = processCPU() - cpu0
	rep.AllocBytes = after.allocBytes - before.allocBytes
	rep.AllocObjects = after.allocObjects - before.allocObjects
	rep.GCCycles = after.gcCycles - before.gcCycles
	rep.GCCPUSeconds = after.gcCPU - before.gcCPU

	if traced {
		rep.Samples, rep.ProfileSamples, rep.ProfileCPU = prof.samples, prof.total, prof.cpu
		rep.Spans = t.spans
		rep.SpanAgg = aggregate(t.spans)
		rep.StrategyCalls = t.strategy.calls.Load()
		rep.StrategySelfNs = t.strategy.selfN.Load()
		rep.BackendNs = t.backend.snapshot()
		rep.HandlerNs = t.handler.snapshot()
	}
	if err := send(stdout, message{Done: rep}); err != nil {
		return err
	}
	return u.close()
}

// profiler profiles a traced child in segments, one per unit with the
// set-up before it, and attributes each segment as it ends. Counting as
// it goes matters because the kernel may deliver fewer signals than
// profileHz asks for (it rounds CPU timers to its tick), so the sample
// count, not the CPU time, decides when enough was profiled.
type profiler struct {
	on      bool
	buf     bytes.Buffer
	running bool
	cpu0    float64
	// cpu is the rusage CPU over all segments; samples and total are the
	// attributed samples.
	cpu     float64
	samples map[string]int64
	total   int64
}

func (p *profiler) start() error {
	if !p.on {
		return nil
	}
	p.buf.Reset()
	// StartCPUProfile fixes 100 Hz; setting the rate first raises it (the
	// runtime then warns on stderr that the rate was already set).
	runtime.SetCPUProfileRate(profileHz)
	p.cpu0 = processCPU()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return err
	}
	p.running = true
	return nil
}

func (p *profiler) stop() error {
	if !p.running {
		return nil
	}
	pprof.StopCPUProfile()
	p.running = false
	p.cpu += processCPU() - p.cpu0
	seg, n, err := attributeProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	for l, c := range seg {
		p.samples[l] += c
	}
	p.total += n
	return nil
}

func send(w io.Writer, m message) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// processCPU returns this process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

type runtimeTotals struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

// readRuntime reads the cumulative heap and GC counters.
func readRuntime() runtimeTotals {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeTotals{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}
