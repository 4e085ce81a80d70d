// Command spotverse-experiments regenerates every table and figure of the
// SpotVerse paper's evaluation on the simulated cloud.
//
// Usage:
//
//	spotverse-experiments [-exp all|list|fig2|fig3|fig4|fig7|fig8|fig9|fig10|table1|table4|ext|chaos|crash|trials|fleet] [-seed N] [-csv dir] [-intensity off|low|medium|severe] [-parallel N] [-trials N] [-fleet sizes] [-fleet-shards N] [-cpuprofile file] [-memprofile file]
//
// Each experiment prints an ASCII rendering of the corresponding table or
// figure; -csv additionally writes raw series files into the directory.
// -intensity sets the background-fault level for -exp crash (the chaos
// sweep always runs the full intensity ladder).
//
// -exp fleet runs the fleet-scale scaling sweep on the flat batched
// FleetState path; -fleet sets its comma-separated workload counts
// (default 1000,10000,50000,100000). -fleet-shards partitions each
// fleet run into that many contiguous shards, each driven by its own
// simulation engine on the worker pool (default: the -parallel value);
// the sweep table is byte-identical for every shard count. The
// deterministic sweep table goes to stdout; wall-clock throughput
// (workloads simulated per second) and, on Linux, the process's peak
// RSS — machine-dependent quantities — go to stderr.
//
// -parallel bounds the experiment worker pool (default GOMAXPROCS). The
// sweep fans out across independent simulations and renders results in a
// fixed order, so the output is byte-identical for every worker count;
// -parallel 1 forces the fully sequential reference path.
//
// -cpuprofile and -memprofile write pprof profiles for performance work
// (see `make profile`); samples carry experiment/seed/arm pprof labels,
// so `go tool pprof -tagfocus` isolates one experiment or strategy arm.
//
// SIGINT/SIGTERM mid-sweep flush both profiles and any partial output
// before exiting with the conventional 128+signum code, so an
// interrupted long run still yields a usable profile.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spotverse/internal/chaos"
	"spotverse/internal/experiment"
)

// usageLine is appended to flag-validation errors so a bad invocation
// prints the accepted values without the caller digging through -h.
const usageLine = "usage: spotverse-experiments [-exp all|list|fig2|fig3|fig4|fig7|fig8|fig9|fig10|table1|table4|ext|chaos|crash|trials|fleet] [-seed N] [-csv dir] [-intensity off|low|medium|severe] [-parallel N] [-trials N] [-fleet sizes] [-fleet-shards N] [-cpuprofile file] [-memprofile file]"

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment to run: all, list, fig2, fig3, fig4, fig7, fig8, fig9, fig10, table1, table4, ext, chaos, crash, trials, fleet")
		seed        = flag.Int64("seed", 42, "simulation seed")
		csvDir      = flag.String("csv", "", "directory to write raw CSV series (optional)")
		trials      = flag.Int("trials", 3, "trial count for -exp trials (the paper repeats each experiment 3x)")
		intensity   = flag.String("intensity", "medium", "background-fault intensity for -exp crash: off, low, medium, severe")
		parallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool bound for the experiment harness (1 = sequential; output is byte-identical either way)")
		fleetSizes  = flag.String("fleet", "1000,10000,50000,100000", "comma-separated workload counts for -exp fleet (each must be a positive integer)")
		fleetShards = flag.String("fleet-shards", "", "minimum partition count for -exp fleet runs (default: the -parallel value; a large fleet is cut into more, cache-sized blocks; output is byte-identical for every value)")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	prof, err := startProfiler(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotverse-experiments:", err)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go handleSignals(sig, prof, os.Stderr, os.Exit)
	err = run(os.Stdout, *exp, *seed, *csvDir, *trials, *parallel, *intensity, *fleetSizes, *fleetShards)
	if ferr := prof.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotverse-experiments:", err)
		os.Exit(1)
	}
}

// profiler owns the optional pprof outputs. Flush is idempotent and
// safe to race between the normal exit path and the signal handler:
// whichever runs first writes the files, the other becomes a no-op.
type profiler struct {
	mu      sync.Mutex
	cpu     *os.File
	memPath string
	done    bool
}

// startProfiler begins CPU profiling (when requested) and remembers
// where the heap profile should land on Flush.
func startProfiler(cpuPath, memPath string) (*profiler, error) {
	p := &profiler{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		p.cpu = f
	}
	return p, nil
}

// Flush stops the CPU profile and writes the heap profile. The first
// call does the work; later calls return nil immediately.
func (p *profiler) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return nil
	}
	p.done = true
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			errs = append(errs, err)
		} else {
			runtime.GC() // settle allocations so the heap profile reflects live data
			errs = append(errs, pprof.WriteHeapProfile(f), f.Close())
		}
	}
	return errors.Join(errs...)
}

// handleSignals turns the first SIGINT/SIGTERM into a profile + output
// flush and an exit with the conventional 128+signum code, so an
// interrupted sweep still leaves usable artifacts behind. exit is
// injected for tests.
func handleSignals(sig <-chan os.Signal, prof *profiler, stderr io.Writer, exit func(int)) {
	s, ok := <-sig
	if !ok {
		return
	}
	fmt.Fprintf(stderr, "spotverse-experiments: received %v, flushing profiles before exit\n", s)
	if err := prof.Flush(); err != nil {
		fmt.Fprintln(stderr, "spotverse-experiments: profile flush:", err)
	}
	// Partial experiment output went straight to stdout; sync pushes it
	// through any OS buffering before the process dies.
	os.Stdout.Sync()
	code := 128
	if n, ok := s.(syscall.Signal); ok {
		code = 128 + int(n)
	}
	exit(code)
}

func run(w io.Writer, exp string, seed int64, csvDir string, trials, parallel int, intensity, fleetSizes, fleetShards string) error {
	inten, err := chaos.ParseIntensity(intensity)
	if err != nil {
		return fmt.Errorf("%w\n%s", err, usageLine)
	}
	if parallel < 1 {
		return fmt.Errorf("invalid -parallel %d (must be >= 1)\n%s", parallel, usageLine)
	}
	prev := experiment.SetWorkers(parallel)
	defer experiment.SetWorkers(prev)
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	runners := map[string]func(w io.Writer) error{
		// -trials, -fleet and -fleet-shards are validated inside their
		// runners, not up front: only those experiments read them, so a
		// malformed value must not break other experiments.
		"trials": func(w io.Writer) error {
			if trials < 1 {
				return fmt.Errorf("invalid -trials %d (must be >= 1)\n%s", trials, usageLine)
			}
			return runTrials(w, seed, trials)
		},
		"fig2":   func(w io.Writer) error { return runFig2(w, seed, csvDir) },
		"fig3":   func(w io.Writer) error { return runFig3(w, seed) },
		"fig4":   func(w io.Writer) error { return runFig4(w, seed, csvDir) },
		"fig7":   func(w io.Writer) error { return runFig7(w, seed, csvDir) },
		"fig8":   func(w io.Writer) error { return runFig8(w, seed) },
		"fig9":   func(w io.Writer) error { return runFig9(w, seed) },
		"fig10":  func(w io.Writer) error { return runFig10(w, seed) },
		"table1": func(w io.Writer) error { return runTable1(w, seed) },
		"table4": func(w io.Writer) error { return runTable4(w, seed) },
		"ext":    func(w io.Writer) error { return runExtensions(w, seed) },
		"chaos":  func(w io.Writer) error { return runChaos(w, seed) },
		"crash":  func(w io.Writer) error { return runCrash(w, seed, inten) },
		"fleet": func(w io.Writer) error {
			sizes, err := parseFleetSizes(fleetSizes)
			if err != nil {
				return err
			}
			shards, err := parseFleetShards(fleetShards, parallel)
			if err != nil {
				return err
			}
			return runFleetSweep(w, sizes, shards)
		},
	}
	switch exp {
	case "all":
		// crash and fleet are deliberately not part of "all": crash
		// schedules controller kills and object corruption, fleet is a
		// scaling study rather than a paper artifact — and "all" output
		// stays comparable across releases either way.
		return runAll(w, []string{"table1", "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10", "table4", "ext", "chaos"}, runners)
	case "list":
		return runList(w, runners)
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q\n%s", exp, usageLine)
	}
	return labeled(exp, func() error { return r(w) })
}

// runList prints every accepted -exp value, one per line, in sorted
// order — a stable surface for scripts and shell completion.
func runList(w io.Writer, runners map[string]func(io.Writer) error) error {
	names := make([]string, 0, len(runners)+2)
	for name := range runners {
		names = append(names, name)
	}
	names = append(names, "all", "list")
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintln(w, name); err != nil {
			return err
		}
	}
	return nil
}

// labeled runs fn under a pprof "experiment" label, so -cpuprofile
// samples attribute to the experiment that burned them (the seed and
// strategy-arm labels nest inside).
func labeled(name string, fn func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels("experiment", name), func(context.Context) {
		err = fn()
	})
	return err
}

// runAll executes the sweep's experiments. With one worker each
// experiment streams straight to w; with more, experiments run
// concurrently (on top of their own internal fan-out), each rendering
// into its own buffer, and the buffers are flushed in the fixed sweep
// order — so the bytes written are identical for every worker count.
func runAll(w io.Writer, names []string, runners map[string]func(io.Writer) error) error {
	if experiment.Workers() <= 1 {
		for _, name := range names {
			if err := labeled(name, func() error { return runners[name](w) }); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	bufs, err := experiment.Gather(len(names), func(i int) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		if err := labeled(names[i], func() error { return runners[names[i]](&buf) }); err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		fmt.Fprintln(&buf)
		return &buf, nil
	})
	if err != nil {
		return err
	}
	for _, buf := range bufs {
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(dir, name string, write func(f *os.File) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func runFig2(w io.Writer, seed int64, csvDir string) error {
	series, err := experiment.Fig2(seed, 90)
	if err != nil {
		return err
	}
	if err := experiment.RenderFig2(w, series); err != nil {
		return err
	}
	return writeCSV(csvDir, "fig2_prices.csv", func(f *os.File) error {
		return experiment.Fig2CSV(f, series)
	})
}

func runFig3(w io.Writer, seed int64) error {
	results, err := experiment.Fig3(seed)
	if err != nil {
		return err
	}
	return experiment.RenderFig3(w, results)
}

func runFig4(w io.Writer, seed int64, csvDir string) error {
	heat, avgs, err := experiment.Fig4(seed, 180)
	if err != nil {
		return err
	}
	if err := experiment.RenderFig4(w, heat, avgs); err != nil {
		return err
	}
	return writeCSV(csvDir, "fig4_metrics.csv", func(f *os.File) error {
		return experiment.Fig4CSV(f, heat, avgs)
	})
}

func runFig7(w io.Writer, seed int64, csvDir string) error {
	results, err := experiment.Fig7(seed)
	if err != nil {
		return err
	}
	if err := experiment.RenderFig7(w, results); err != nil {
		return err
	}
	for _, r := range results {
		kind := r.Kind.String()
		if err := writeCSV(csvDir, "fig7_"+kind+"_single.csv", func(f *os.File) error {
			return experiment.SeriesCSV(f, "single-region", r.Single)
		}); err != nil {
			return err
		}
		if err := writeCSV(csvDir, "fig7_"+kind+"_spotverse.csv", func(f *os.File) error {
			return experiment.SeriesCSV(f, "spotverse", r.SpotVerse)
		}); err != nil {
			return err
		}
	}
	return nil
}

func runFig8(w io.Writer, seed int64) error {
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
}

func runFig9(w io.Writer, seed int64) error {
	results, err := experiment.Fig9(seed)
	if err != nil {
		return err
	}
	return experiment.RenderFig9(w, results)
}

func runFig10(w io.Writer, seed int64) error {
	cells, err := experiment.Fig10(seed)
	if err != nil {
		return err
	}
	selection, err := experiment.Table3Selection(seed)
	if err != nil {
		return err
	}
	return experiment.RenderFig10(w, cells, selection)
}

func runTable1(w io.Writer, seed int64) error {
	rows, err := experiment.Table1(seed)
	if err != nil {
		return err
	}
	return experiment.RenderTable1(w, rows)
}

func runTable4(w io.Writer, seed int64) error {
	res, err := experiment.Table4(seed)
	if err != nil {
		return err
	}
	return experiment.RenderTable4(w, res)
}

// runExtensions runs the Section 7 future-work experiments: predictive
// placement, checkpoint-store comparison, and degraded scoring modes.
func runExtensions(w io.Writer, seed int64) error {
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
}

// runChaos sweeps the fault-injection intensities over the strategy set
// and reports completion, inflation, and the hardening counters.
func runChaos(w io.Writer, seed int64) error {
	rows, err := experiment.Resilience(seed)
	if err != nil {
		return err
	}
	return experiment.RenderResilience(w, rows)
}

// runCrash runs the crash-restart sweep: controller kills, manifest
// corruption, and bucket losses against the journaled stack and the
// no-journal ablation.
func runCrash(w io.Writer, seed int64, intensity chaos.Intensity) error {
	rows, err := experiment.Crash(seed, intensity)
	if err != nil {
		return err
	}
	return experiment.RenderCrash(w, rows)
}

// parseFleetSizes validates the -fleet flag: a comma-separated list of
// positive integer workload counts.
func parseFleetSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid -fleet %q (must be comma-separated positive integers)\n%s", s, usageLine)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// parseFleetShards validates the -fleet-shards flag: a positive integer
// minimum partition count, defaulting to the worker-pool bound so a
// parallel sweep shards each fleet run across its workers out of the
// box.
func parseFleetShards(s string, parallel int) (int, error) {
	if s == "" {
		return parallel, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 1 {
		return 0, fmt.Errorf("invalid -fleet-shards %q (must be a positive integer shard count)\n%s", s, usageLine)
	}
	return n, nil
}

// runFleetSweep runs the fleet-scale scaling sweep. The deterministic
// table streams to w; wall-clock throughput — the sweep's reason to
// exist — and the process's peak RSS, both machine-dependent, go to
// stderr so stdout stays byte-identical across runs, machines,
// -parallel, and -fleet-shards values.
func runFleetSweep(w io.Writer, sizes []int, shards int) error {
	begin := time.Now()
	cells, err := experiment.FleetSweep(sizes, shards)
	if err != nil {
		return err
	}
	elapsed := time.Since(begin)
	if err := experiment.RenderFleet(w, cells); err != nil {
		return err
	}
	total := 0
	for _, c := range cells {
		total += c.Size
	}
	perSec := float64(total) / elapsed.Seconds()
	rss := ""
	if kb, ok := peakRSSKB(); ok {
		rss = fmt.Sprintf(", peak RSS %d kB", kb)
	}
	fmt.Fprintf(os.Stderr, "fleet sweep: %d cells, %d workloads simulated in %.2fs (%.0f workloads/wall-second%s)\n",
		len(cells), total, elapsed.Seconds(), perSec, rss)
	return nil
}

// runTrials repeats the Fig. 7 standard-workload comparison across
// seeds and prints mean ± std, the paper's three-trial protocol.
func runTrials(w io.Writer, seed int64, n int) error {
	type strategyRun struct {
		name string
		fn   func(trialSeed int64) (*experiment.Result, error)
	}
	runs := []strategyRun{
		{"single-region", func(s int64) (*experiment.Result, error) {
			return experiment.Fig7TrialSingle(s)
		}},
		{"spotverse", func(s int64) (*experiment.Result, error) {
			return experiment.Fig7TrialSpotVerse(s)
		}},
	}
	fmt.Fprintf(w, "## Fig. 7 standard workload over %d trials (seeds %d..%d)\n", n, seed, seed+int64(n)-1)
	fmt.Fprintf(w, "%-14s %22s %22s %22s\n", "strategy", "interruptions", "makespan_h", "cost_usd")
	for _, r := range runs {
		summary, err := experiment.Trials(n, seed, r.fn)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %13.1f ± %6.1f %13.1f ± %6.1f %13.2f ± %6.2f\n",
			r.name,
			summary.Interruptions.Mean, summary.Interruptions.Std,
			summary.MakespanHours.Mean, summary.MakespanHours.Std,
			summary.TotalCostUSD.Mean, summary.TotalCostUSD.Std)
	}
	return nil
}
