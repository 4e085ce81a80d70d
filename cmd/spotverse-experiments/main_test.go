package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"spotverse/internal/experiment"
)

func TestUnknownExperimentRejected(t *testing.T) {
	err := run(io.Discard, "fig99", 42, "", 3, 1, "medium", "1000", "")
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
	if !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("error should carry the usage line, got: %v", err)
	}
}

func TestInvalidIntensityRejected(t *testing.T) {
	err := run(io.Discard, "chaos", 42, "", 3, 1, "apocalyptic", "1000", "")
	if err == nil {
		t.Fatal("invalid intensity should error")
	}
	if !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("error should carry the usage line, got: %v", err)
	}
}

func TestInvalidParallelRejected(t *testing.T) {
	err := run(io.Discard, "table1", 42, "", 3, 0, "medium", "1000", "")
	if err == nil {
		t.Fatal("non-positive -parallel should error")
	}
	if !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("error should carry the usage line, got: %v", err)
	}
}

func TestInvalidTrialsRejected(t *testing.T) {
	for _, bad := range []int{0, -1} {
		var out bytes.Buffer
		err := run(&out, "trials", 42, "", bad, 1, "medium", "1000", "")
		if err == nil {
			t.Fatalf("-trials %d should error", bad)
		}
		if !strings.Contains(err.Error(), "usage:") {
			t.Fatalf("error should carry the usage line, got: %v", err)
		}
		if out.Len() != 0 {
			t.Fatalf("-trials %d wrote to stdout before failing:\n%s", bad, out.String())
		}
	}
}

// TestTrialsOnlyValidatedForTrials keeps the flag inert elsewhere: a
// bad -trials value must not break experiments that never read it.
func TestTrialsOnlyValidatedForTrials(t *testing.T) {
	if err := run(io.Discard, "table1", 42, "", 0, 1, "medium", "1000", ""); err != nil {
		t.Fatalf("table1 should ignore -trials: %v", err)
	}
}

func TestInvalidFleetSizesRejected(t *testing.T) {
	for _, bad := range []string{"0", "-5", "many", "1000,", "1000,0", "12.5", ""} {
		err := run(io.Discard, "fleet", 42, "", 3, 1, "medium", bad, "")
		if err == nil {
			t.Fatalf("-fleet %q should error", bad)
		}
		if !strings.Contains(err.Error(), "usage:") {
			t.Fatalf("error should carry the usage line, got: %v", err)
		}
	}
}

// TestFleetSizesOnlyValidatedForFleet keeps the flag inert elsewhere: a
// bad -fleet value must not break experiments that never read it.
func TestFleetSizesOnlyValidatedForFleet(t *testing.T) {
	if err := run(io.Discard, "table1", 42, "", 3, 1, "medium", "bogus", ""); err != nil {
		t.Fatalf("table1 should ignore -fleet: %v", err)
	}
}

func TestInvalidFleetShardsRejected(t *testing.T) {
	for _, bad := range []string{"0", "-2", "two", "1.5", "1,2"} {
		err := run(io.Discard, "fleet", 42, "", 3, 1, "medium", "50", bad)
		if err == nil {
			t.Fatalf("-fleet-shards %q should error", bad)
		}
		if !strings.Contains(err.Error(), "usage:") {
			t.Fatalf("error should carry the usage line, got: %v", err)
		}
	}
}

// TestFleetShardsOnlyValidatedForFleet mirrors the -fleet contract: a
// bad shard count must not break experiments that never read it.
func TestFleetShardsOnlyValidatedForFleet(t *testing.T) {
	if err := run(io.Discard, "table1", 42, "", 3, 1, "medium", "1000", "zero"); err != nil {
		t.Fatalf("table1 should ignore -fleet-shards: %v", err)
	}
}

// TestFleetShardsByteIdentical pins the sharded engine's contract at
// the CLI surface: the sweep table must not depend on how each fleet
// run is partitioned, including shard counts above the fleet size.
func TestFleetShardsByteIdentical(t *testing.T) {
	render := func(shards string) string {
		var buf bytes.Buffer
		if err := run(&buf, "fleet", 42, "", 3, 2, "medium", "100,200", shards); err != nil {
			t.Fatalf("fleet with -fleet-shards %s: %v", shards, err)
		}
		return buf.String()
	}
	want := render("1")
	if want == "" {
		t.Fatal("fleet rendered no output")
	}
	for _, shards := range []string{"2", "8", "256", ""} {
		if got := render(shards); got != want {
			t.Fatalf("fleet output with -fleet-shards %s differs from -fleet-shards 1", shards)
		}
	}
}

func TestRunFleetSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fleet", 42, "", 3, 1, "medium", "50,100", ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"single-region", "skypilot", "Fleet-scale sweep"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, out)
		}
	}
}

// TestFleetParallelByteIdentical pins the fleet sweep's determinism
// across worker counts — and, since -fleet-shards defaults to the
// -parallel value, across shard counts at the same time; under
// `go test -race` it doubles as the data race stress for the sharded
// fleet path.
func TestFleetParallelByteIdentical(t *testing.T) {
	render := func(parallel int) string {
		var buf bytes.Buffer
		if err := run(&buf, "fleet", 42, "", 3, parallel, "medium", "200,400", ""); err != nil {
			t.Fatalf("fleet with -parallel %d: %v", parallel, err)
		}
		return buf.String()
	}
	want := render(1)
	if want == "" {
		t.Fatal("fleet rendered no output")
	}
	for _, parallel := range []int{4, 8} {
		if got := render(parallel); got != want {
			t.Fatalf("fleet output with -parallel %d differs from -parallel 1", parallel)
		}
	}
}

// TestMarketStoreSizeByteIdentical pins the snapshot-sharing contract
// at the CLI surface: -exp trials runs three seeds side by side, and
// its bytes must not depend on the store's size. A 1-segment store
// drops the other seeds' snapshots on every Acquire while their runs
// still read them.
func TestMarketStoreSizeByteIdentical(t *testing.T) {
	defer experiment.SetMarketCache(experiment.DefaultMarketCacheSegments)
	render := func(segments int) string {
		experiment.SetMarketCache(segments)
		var buf bytes.Buffer
		if err := run(&buf, "trials", 42, "", 3, 3, "medium", "1000", ""); err != nil {
			t.Fatalf("trials with a %d-segment store: %v", segments, err)
		}
		return buf.String()
	}
	want := render(experiment.DefaultMarketCacheSegments)
	if want == "" {
		t.Fatal("trials rendered no output")
	}
	if got := render(1); got != want {
		t.Fatal("trials output with a 1-segment store differs from the default store")
	}
}

func TestRunTable1(t *testing.T) {
	if err := run(io.Discard, "table1", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig9(t *testing.T) {
	if err := run(io.Discard, "fig9", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrials(t *testing.T) {
	if err := run(io.Discard, "trials", 42, "", 1, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig3(t *testing.T) {
	if err := run(io.Discard, "fig3", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig4(t *testing.T) {
	if err := run(io.Discard, "fig4", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable4(t *testing.T) {
	if err := run(io.Discard, "table4", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "fig2", 42, dir, 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig2_prices.csv"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("csv missing: %v %v", matches, err)
	}
}

func TestRunFig7WithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "fig7", 42, dir, 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig7_standard_single.csv", "fig7_standard_spotverse.csv",
		"fig7_checkpoint_single.csv", "fig7_checkpoint_spotverse.csv",
	} {
		if _, err := filepath.Glob(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunFig4WithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "fig4", 42, dir, 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig4_metrics.csv"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("csv missing: %v %v", matches, err)
	}
}

func TestRunFig8(t *testing.T) {
	if err := run(io.Discard, "fig8", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig10(t *testing.T) {
	if err := run(io.Discard, "fig10", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunExtensions(t *testing.T) {
	if err := run(io.Discard, "ext", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaos(t *testing.T) {
	if err := run(io.Discard, "chaos", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrash(t *testing.T) {
	if err := run(io.Discard, "crash", 42, "", 3, 1, "medium", "1000", ""); err != nil {
		t.Fatal(err)
	}
}

// TestAllParallelByteIdentical is the harness's determinism contract:
// the full -exp all sweep must render the same bytes whether it runs
// on one worker (the sequential reference path) or fans out across 4
// or 8. A single experiment (table1) is additionally checked so the
// single-runner path is covered too.
func TestAllParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is too slow for -short")
	}
	render := func(exp string, parallel int) string {
		var buf bytes.Buffer
		if err := run(&buf, exp, 42, "", 3, parallel, "medium", "1000", ""); err != nil {
			t.Fatalf("%s with -parallel %d: %v", exp, parallel, err)
		}
		return buf.String()
	}
	for _, exp := range []string{"table1", "all"} {
		want := render(exp, 1)
		if want == "" {
			t.Fatalf("%s rendered no output", exp)
		}
		for _, parallel := range []int{4, 8} {
			if got := render(exp, parallel); got != want {
				t.Fatalf("%s output with -parallel %d differs from -parallel 1", exp, parallel)
			}
		}
	}
}

func TestExpListDeterministicAndComplete(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := run(&buf, "list", 42, "", 3, 1, "medium", "1000", ""); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("-exp list output is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	for _, want := range []string{"all", "list", "fig2", "fig10", "table1", "table4", "ext", "chaos", "crash", "trials", "fleet"} {
		found := false
		for _, l := range lines {
			if l == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("-exp list missing %q:\n%s", want, a)
		}
	}
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("-exp list output not sorted:\n%s", a)
	}
}

func TestProfilerFlushIdempotent(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	p, err := startProfiler(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("first flush: %v", err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("second flush should be a no-op, got %v", err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s not written: %v", path, err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

func TestHandleSignalsFlushesAndExits(t *testing.T) {
	dir := t.TempDir()
	mem := filepath.Join(dir, "mem.pprof")
	p, err := startProfiler("", mem)
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	codes := make(chan int, 1)
	var stderr bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		handleSignals(sig, p, &stderr, func(code int) { codes <- code })
	}()
	sig <- syscall.SIGTERM
	select {
	case code := <-codes:
		if code != 143 { // 128 + SIGTERM(15)
			t.Fatalf("exit code %d, want 143", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("signal handler never exited")
	}
	<-done
	if info, err := os.Stat(mem); err != nil || info.Size() == 0 {
		t.Fatalf("heap profile not flushed on signal: %v", err)
	}
	if !strings.Contains(stderr.String(), "flushing profiles") {
		t.Fatalf("no flush notice on stderr: %q", stderr.String())
	}
	// A closed channel (signal.Stop on normal exit) must not flush again
	// or exit.
	p2, _ := startProfiler("", "")
	sig2 := make(chan os.Signal)
	close(sig2)
	handleSignals(sig2, p2, &stderr, func(int) { t.Fatal("exit called for closed signal channel") })
}
