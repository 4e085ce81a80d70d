package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// TestCLIEquivalence checks that what the benchmark measures is what the
// CLIs do: at seed 42 its output bytes equal each command's.
func TestCLIEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	dir := t.TempDir()
	build := func(pkg string) string {
		out := filepath.Join(dir, filepath.Base(pkg))
		if b, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
		return out
	}
	run := func(bin string, args ...string) []byte {
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.Bytes())
		}
		return out
	}
	exp := build("spotverse/cmd/spotverse-experiments")
	srv := build("spotverse/cmd/spotverse-serve")
	trace := filepath.Join(dir, "trace.jsonl")
	run(srv, "-gen-trace", trace, "-gen-count", strconv.Itoa(replayRequests), "-seed", "42")

	for _, tc := range []struct {
		workload string
		cli      []byte
	}{
		{"paper-sweep", run(exp, "-exp", "all", "-seed", "42")},
		{"fleet-100k", run(exp, "-exp", "fleet", "-fleet", strconv.Itoa(fleetSize))},
		{"serve-replay", run(srv, "-replay", trace, "-seed", "42")},
	} {
		got := unitOutput(t, tc.workload, 42, false, newTracer(false))
		if !bytes.Equal(got, tc.cli) {
			t.Errorf("%s: benchmark output differs from the CLI's\n--- bench\n%s\n--- cli\n%s", tc.workload, got, tc.cli)
		}
	}
}

// TestGoldenDigests reruns every deterministic workload at the golden
// seeds in-process and compares with testdata/golden.json. Regenerate
// with `spotverse-bench -update` after an intended output change.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range goldenSeeds {
		for _, w := range workloads {
			if w.live {
				continue
			}
			want := g[strconv.FormatInt(seed, 10)][w.name]
			if want == "" {
				t.Errorf("no golden digest for %s at seed %d", w.name, seed)
				continue
			}
			sum := sha256.Sum256(unitOutput(t, w.name, seed, false, newTracer(false)))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s at seed %d: digest %s, golden %s", w.name, seed, got, want)
			}
		}
	}
}
