package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spotverse/internal/fuzz"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.sha256 from the current outputs")

// goldenPath holds one "<sha256>  <case>" line per pinned output.
var goldenPath = filepath.Join("testdata", "golden.sha256")

// reproPath is a checked-in repro: `spotverse-fuzz -seeds 10
// -disable-fencing` shrinks seed 7's split-brain plan to it.
var reproPath = filepath.Join("testdata", "fuzz-repro-7.json")

// fuzzCase is one pinned output; render returns its bytes.
type fuzzCase struct {
	name   string
	render func(t *testing.T) []byte
}

// fuzzCases pins the 50-seed campaign's verbose stdout, the batch
// fingerprint of every one of those trials (the -v lines encode only
// plan shape, so this case is what pins simulated outcomes), and the
// replay of a shrunken unfenced repro.
var fuzzCases = []fuzzCase{
	{name: "campaign/1-50", render: func(t *testing.T) []byte {
		return fuzzStdout(t, "-seeds", "50", "-v", "-out", t.TempDir())
	}},
	{name: "fingerprints/1-50", render: func(t *testing.T) []byte {
		var b bytes.Buffer
		for seed := int64(1); seed <= 50; seed++ {
			tr, err := fuzz.RunTrial(fuzz.Generate(seed))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			fmt.Fprintf(&b, "%d %s\n", seed, tr.BatchFingerprint)
		}
		return b.Bytes()
	}},
	{name: "replay/7", render: func(t *testing.T) []byte {
		return fuzzStdout(t, "-replay", reproPath)
	}},
}

// TestFuzzGoldenDigests pins the SHA-256 of each case's output. A
// refactor that claims to keep fuzz output unchanged must pass it
// without -update.
func TestFuzzGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz golden campaign is too slow for -short")
	}
	got := make(map[string]string, len(fuzzCases))
	for _, c := range fuzzCases {
		sum := sha256.Sum256(c.render(t))
		got[c.name] = hex.EncodeToString(sum[:])
	}
	if *update {
		var b strings.Builder
		for _, c := range fuzzCases {
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
	for _, c := range fuzzCases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no digest in %s (run with -update)", c.name, goldenPath)
			continue
		}
		if got[c.name] != w {
			t.Errorf("%s: output digest %s, pinned %s", c.name, got[c.name], w)
		}
	}
}

// fuzzStdout runs the command line in-process and returns its stdout;
// any exit other than 0 fails the test.
func fuzzStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	code, stdout, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("%v: exit %d (stderr %q)", args, code, stderr)
	}
	return []byte(stdout)
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
