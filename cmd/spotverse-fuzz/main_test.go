package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListInvariantsSortedDeterministic(t *testing.T) {
	code, out, _ := run(t, "-list-invariants")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("invariant line missing description: %q", line)
		}
		names = append(names, fields[0])
	}
	if len(names) != 6 {
		t.Fatalf("%d invariants listed, want 6:\n%s", len(names), out)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("names not sorted: %v", names)
	}
	_, again, _ := run(t, "-list-invariants")
	if again != out {
		t.Fatal("two listings differ")
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-seeds", "0"},
		{"stray-arg"},
	} {
		code, _, stderr := run(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if stderr == "" {
			t.Fatalf("%v: no error message", args)
		}
	}
}

func TestReplayBadFiles(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{
		"missing": filepath.Join(t.TempDir(), "nope.json"),
		"empty":   empty,
		"corrupt": corrupt,
	} {
		code, _, stderr := run(t, "-replay", path)
		if code != 1 {
			t.Fatalf("%s: exit %d, want 1", name, code)
		}
		if lines := strings.Count(strings.TrimSpace(stderr), "\n") + 1; lines != 1 {
			t.Fatalf("%s: %d error lines, want exactly 1:\n%s", name, lines, stderr)
		}
	}
}

func TestCleanCampaign(t *testing.T) {
	dir := t.TempDir()
	code, out, stderr := run(t, "-seeds", "5", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, "5 trials, 0 violations") {
		t.Fatalf("unexpected summary: %q", out)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "fuzz-repro-*.json")); len(files) != 0 {
		t.Fatalf("clean campaign wrote repros: %v", files)
	}
}

// TestBrokenFencingCaughtShrunkReplayed is the CLI acceptance path: a
// campaign against the unfenced build exits 1, writes a shrunken repro
// of at most three events, and -replay on that file verifies two
// byte-identical re-executions and exits 0.
func TestBrokenFencingCaughtShrunkReplayed(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	dir := t.TempDir()
	code, out, stderr := run(t, "-seeds", "10", "-seed", "1", "-disable-fencing", "-out", dir)
	if code != 1 {
		t.Fatalf("broken build: exit %d, want 1 (stdout %q stderr %q)", code, out, stderr)
	}
	if !strings.Contains(out, "relaunch-exactly-once") {
		t.Fatalf("summary does not name the split-brain invariant:\n%s", out)
	}
	files, err := filepath.Glob(filepath.Join(dir, "fuzz-repro-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no repro written (err %v)", err)
	}
	for _, f := range files {
		code, rout, rerr := run(t, "-replay", f)
		if code != 0 {
			t.Fatalf("replay %s: exit %d, stderr %q", f, code, rerr)
		}
		if !strings.Contains(rout, "repro verified") || !strings.Contains(rout, "2 identical replays") {
			t.Fatalf("replay %s: unexpected output %q", f, rout)
		}
	}
}

// A campaign creates a missing nested -out directory before its first
// trial, so its repros land there instead of being lost at the end.
func TestCampaignCreatesOutDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "soak", "repros")
	code, out, stderr := run(t, "-seed", "7", "-seeds", "1", "-disable-fencing", "-out", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stdout %q stderr %q)", code, out, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "fuzz-repro-7.json")); err != nil {
		t.Fatalf("repro not written to the new directory: %v (stdout %q)", err, out)
	}
}

// TestCampaignOutputDeterministic runs the same campaign twice and
// requires identical bytes on stdout.
func TestCampaignOutputDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	_, a, _ := run(t, "-seeds", "3", "-v", "-out", dirA)
	_, b, _ := run(t, "-seeds", "3", "-v", "-out", dirB)
	if a != b {
		t.Fatalf("campaign output differs:\n%s\n---\n%s", a, b)
	}
}
