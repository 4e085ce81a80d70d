package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.sha256 from the current outputs")

// goldenPath holds one "<sha256>  <case>" line per pinned output.
var goldenPath = filepath.Join("testdata", "golden.sha256")

// replayCase is one pinned `-replay -verbose` stdout: a trace generated
// with -gen-count/-gen-qps at seed, replayed at the same seed under
// chaos.
type replayCase struct {
	name  string
	seed  int64
	count int
	qps   string // "" = the -gen-qps default
	chaos string
}

// replayCases covers every chaos intensity on a held-out seed (the
// degraded path that serves the Monitor's cached snapshot under
// DynamoDB faults shows up in the verbose lines) and a longer trace at
// the default seed.
var replayCases = []replayCase{
	{name: "replay/7/off", seed: 7, count: 2000, qps: "600", chaos: "off"},
	{name: "replay/7/low", seed: 7, count: 2000, qps: "600", chaos: "low"},
	{name: "replay/7/medium", seed: 7, count: 2000, qps: "600", chaos: "medium"},
	{name: "replay/7/severe", seed: 7, count: 2000, qps: "600", chaos: "severe"},
	{name: "replay/42/off", seed: 42, count: 5000, chaos: "off"},
}

// TestReplayGoldenDigests pins the SHA-256 of each case's stdout. A
// change that claims to keep serving output unchanged must pass it
// without -update.
func TestReplayGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("replay sweep is too slow for -short")
	}
	dir := t.TempDir()
	got := make(map[string]string, len(replayCases))
	for _, c := range replayCases {
		d, err := replayDigest(c, dir)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = d
	}
	if *update {
		var b strings.Builder
		for _, c := range replayCases {
			fmt.Fprintf(&b, "%s  %s\n", got[c.name], c.name)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range replayCases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no digest in %s (run with -update)", c.name, goldenPath)
			continue
		}
		if got[c.name] != w {
			t.Errorf("%s: stdout digest %s, pinned %s", c.name, got[c.name], w)
		}
	}
}

// replayDigest generates the case's trace and replays it through the
// same flag parsing the command line uses.
func replayDigest(c replayCase, dir string) (string, error) {
	seed := strconv.FormatInt(c.seed, 10)
	trace := filepath.Join(dir, fmt.Sprintf("trace-%d-%d-%s.jsonl", c.seed, c.count, c.qps))
	gen := []string{"-gen-trace", trace, "-gen-count", strconv.Itoa(c.count), "-seed", seed}
	if c.qps != "" {
		gen = append(gen, "-gen-qps", c.qps)
	}
	o, err := parseFlags(gen, io.Discard)
	if err != nil {
		return "", err
	}
	if err := runGenTrace(o, nil); err != nil {
		return "", err
	}
	o, err = parseFlags([]string{"-replay", trace, "-verbose", "-seed", seed, "-chaos", c.chaos}, io.Discard)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := runReplay(o, &buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[1]] = fields[0]
	}
	return out, sc.Err()
}
