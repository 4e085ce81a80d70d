// Command spotverse-fuzz is the deterministic fault-space fuzzer: it
// generates one composite chaos plan per seed, runs the full SpotVerse
// stack (batch control plane, durable checkpoints, serve replay) under
// each plan, and checks the system-wide invariant catalog after every
// run. A violation is shrunk to a minimal plan and written as
// fuzz-repro-<seed>.json, which -replay re-executes byte-identically.
//
// Everything — plan generation, runs, shrinking, output — is derived
// from explicit seeds, so a campaign prints the same bytes on every
// machine.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spotverse/internal/fuzz"
)

const usageLine = `usage: spotverse-fuzz [flags]

modes:
  (default)            fuzz campaign: -seeds plans starting at -seed
  -replay FILE         re-execute a repro file twice and verify both runs
                       reproduce its recorded fingerprint and violations
  -list-invariants     print the invariant catalog and exit

flags:`

type options struct {
	seed      int64
	seeds     int
	workloads int
	disable   bool
	out       string
	verbose   bool

	replayPath string
	listInv    bool
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("spotverse-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, usageLine)
		fs.PrintDefaults()
	}
	fs.Int64Var(&o.seed, "seed", 1, "first seed of the campaign")
	fs.IntVar(&o.seeds, "seeds", 50, "number of seeds (plans) to run")
	fs.IntVar(&o.workloads, "workloads", 0, "override workload count per plan (0 = plan decides)")
	fs.BoolVar(&o.disable, "disable-fencing", false, "run the deliberately broken unfenced control plane")
	fs.StringVar(&o.out, "out", ".", "directory for fuzz-repro-<seed>.json files")
	fs.BoolVar(&o.verbose, "v", false, "print one progress line per seed")
	fs.StringVar(&o.replayPath, "replay", "", "verify this repro file instead of fuzzing")
	fs.BoolVar(&o.listInv, "list-invariants", false, "print the invariant catalog and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.replayPath == "" && !o.listInv && o.seeds < 1 {
		return nil, fmt.Errorf("-seeds must be >= 1 (got %d)", o.seeds)
	}
	return o, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "spotverse-fuzz:", err)
		return 2
	}
	switch {
	case o.listInv:
		listInvariants(stdout)
		return 0
	case o.replayPath != "":
		err = runReplay(o, stdout)
	default:
		var violated bool
		violated, err = runCampaign(o, stdout)
		if err == nil && violated {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "spotverse-fuzz:", err)
		return 1
	}
	return 0
}

// listInvariants prints the catalog, sorted by name (the registry's
// canonical order).
func listInvariants(stdout io.Writer) {
	for _, inv := range fuzz.Registry() {
		fmt.Fprintf(stdout, "%-32s %s\n", inv.Name, inv.Desc)
	}
}

// runReplay re-executes a repro file and verifies byte-identical
// reproduction.
func runReplay(o *options, stdout io.Writer) error {
	f, err := os.Open(o.replayPath)
	if err != nil {
		return err
	}
	r, err := fuzz.ReadRepro(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := fuzz.VerifyRepro(r); err != nil {
		return err
	}
	names := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		names = append(names, v.Invariant)
	}
	fmt.Fprintf(stdout, "repro verified: seed=%d events=%d fingerprint=%s violations=[%s] (2 identical replays)\n",
		r.Plan.Seed, len(r.Plan.Events), r.Fingerprint, strings.Join(dedupe(names), " "))
	return nil
}

func dedupe(in []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// runCampaign fuzzes -seeds plans; the bool reports whether any
// invariant was violated. The -out directory is created before the
// first trial, so a bad path fails fast instead of after the campaign.
func runCampaign(o *options, stdout io.Writer) (bool, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	seeds := make([]int64, o.seeds)
	for i := range seeds {
		seeds[i] = o.seed + int64(i)
	}
	cfg := fuzz.CampaignConfig{
		Seeds:          seeds,
		DisableFencing: o.disable,
		Workloads:      o.workloads,
	}
	if o.verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		}
	}
	res, err := fuzz.Campaign(cfg)
	if err != nil {
		return false, err
	}
	if len(res.Failures) == 0 {
		fmt.Fprintf(stdout, "fuzz: %d trials, 0 violations\n", res.Trials)
		return false, nil
	}
	fmt.Fprintf(stdout, "fuzz: %d trials, %d violating seeds\n", res.Trials, len(res.Failures))
	for _, r := range res.Failures {
		path, err := fuzz.SaveRepro(o.out, r)
		if err != nil {
			return true, fmt.Errorf("writing repro for seed %d: %w", r.Plan.Seed, err)
		}
		names := make([]string, 0, len(r.Violations))
		for _, v := range r.Violations {
			names = append(names, v.Invariant)
		}
		fmt.Fprintf(stdout, "  seed %d: [%s] shrunk to %d events in %d runs -> %s\n",
			r.Plan.Seed, strings.Join(dedupe(names), " "), len(r.Plan.Events), r.ShrinkRuns, path)
	}
	return true, nil
}
