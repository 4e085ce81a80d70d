// Command spotverse-bench measures what users of this SpotVerse
// reproduction wait for — the paper sweep, fleet-scale runs and the
// placement daemon — end to end, and splits the work across the
// repository's layers on a traced pass.
//
// Usage:
//
//	spotverse-bench [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-trace-out file] [-out record.json] [-quick]
//	spotverse-bench -compare base.json head.json
//	spotverse-bench -update [-golden testdata/golden.json]
//
// Every repetition runs in a fresh child process of this binary, so set-up
// time, peak RSS and cold caches are per run, as a CLI user sees them.
// Each workload prints its metrics by name with their units; the last
// line of standard output is one JSON object with the fields correct,
// attempted, failed and metrics. Outputs are checked on every run: the
// deterministic ones against digests pinned in testdata/golden.json at
// seeds 42 and 7 and against each other, fleet results against their
// conservation laws, and served requests against the server's counters.
// A failed check makes the command exit 1.
//
// See README.md for the workloads, the metrics and how to compare two
// builds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// defaultSeconds is the measuring time per workload; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 30

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spotverse-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: all, "+workloadNames())
		seed     = fs.Int64("seed", 42, "seed the workloads' inputs are generated from")
		seconds  = fs.Float64("seconds", defaultSeconds, "measuring time per workload")
		trace    = fs.Int("trace", 0, "1 runs the traced pass, which reports per-layer metrics")
		traceOut = fs.String("trace-out", "trace.json", "traced pass: file the spans and per-layer metrics are written to")
		out      = fs.String("out", "", "append this pass to a bench record file, for -compare")
		quick    = fs.Bool("quick", false, "run every workload once at reduced size (a smoke test)")
		cmpBase  = fs.String("compare", "", "compare this base record with the head record named next")
		update   = fs.Bool("update", false, "regenerate the golden digests")
		golden   = fs.String("golden", "testdata/golden.json", "golden digest file -update writes")
		child    = fs.String("child", "", "internal: run one unit of this workload as a child process")
		setup    = fs.Bool("setup-only", false, "internal: a child that exits once set up")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "spotverse-bench: -trace must be 0 or 1")
		return 2
	}
	if *child != "" {
		if err := runChild(*child, *seed, *quick, *trace == 1, *setup, os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "spotverse-bench child:", err)
			return 1
		}
		return 0
	}
	if *cmpBase != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "spotverse-bench: -compare needs a base and a head record")
			return 2
		}
		anyWorse, err := compare(stdout, *cmpBase, fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "spotverse-bench:", err)
			return 1
		}
		if anyWorse {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "spotverse-bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "spotverse-bench:", err)
		return 1
	}
	p := pass{exe: exe, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), quick: *quick, stderr: stderr}
	if *update {
		if err := updateGolden(p, *golden); err != nil {
			fmt.Fprintln(stderr, "spotverse-bench:", err)
			return 1
		}
		return 0
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "spotverse-bench:", err)
		return 1
	}
	p.golden = g[strconv.FormatInt(*seed, 10)]
	var names []string
	if *workload != "all" {
		if _, ok := findWorkload(*workload); !ok {
			fmt.Fprintf(stderr, "spotverse-bench: unknown workload %q (want all, %s)\n", *workload, workloadNames())
			return 2
		}
		names = []string{*workload}
	}
	outs, err := runPass(&p, names, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "spotverse-bench:", err)
		return 1
	}
	if *trace == 1 && *traceOut != "" {
		if err := writeJSON(*traceOut, outs); err != nil {
			fmt.Fprintln(stderr, "spotverse-bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecord(*out, outs); err != nil {
			fmt.Fprintln(stderr, "spotverse-bench:", err)
			return 1
		}
	}
	line := summarize(outs)
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "spotverse-bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
