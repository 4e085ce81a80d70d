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
	"strconv"
	"strings"
	"testing"

	"spotverse/internal/experiment"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.sha256 from the current outputs")

// goldenPath holds one "<sha256>  <case>" line per pinned output.
var goldenPath = filepath.Join("testdata", "golden.sha256")

// goldenCase is one pinned stdout. Every variant must render the same
// bytes: experiments run at -parallel 1 and 2 (-exp all also at 8, and
// with the market-snapshot store off), the fleet sweep at -fleet-shards
// 1 and 8.
type goldenCase struct {
	name       string
	exp        string
	seed       int64
	fleetSizes string
	variants   []variant
}

type variant struct {
	parallel int
	shards   string
	// mktcache is the -mktcache value; empty keeps the default size.
	mktcache string
}

var (
	workerVariants = []variant{{parallel: 1}, {parallel: 2}}
	allVariants    = []variant{{parallel: 1}, {parallel: 2}, {parallel: 8}, {parallel: 2, mktcache: "0"}}
	shardVariants  = []variant{{parallel: 2, shards: "1"}, {parallel: 2, shards: "8"}}
)

// goldenCases covers every paper artifact at the default and a held-out
// seed, the crash-restart sweep (the only runner that rescans open spot
// requests, and not part of -exp all), the multi-trial aggregate and the
// fleet sweep.
var goldenCases = []goldenCase{
	{name: "all/42", exp: "all", seed: 42, variants: allVariants},
	{name: "all/7", exp: "all", seed: 7, variants: allVariants},
	{name: "crash/42", exp: "crash", seed: 42, variants: workerVariants},
	{name: "crash/7", exp: "crash", seed: 7, variants: workerVariants},
	{name: "trials/42", exp: "trials", seed: 42, variants: workerVariants},
	{name: "fleet", exp: "fleet", seed: 42, fleetSizes: "1000,10000", variants: shardVariants},
}

// TestGoldenDigests pins the SHA-256 of each case's stdout. A refactor
// that claims to keep output unchanged must pass it without -update.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	got := make(map[string]string, len(goldenCases))
	for _, c := range goldenCases {
		for _, v := range c.variants {
			d, err := digest(c, v)
			if err != nil {
				t.Fatalf("%s (%+v): %v", c.name, v, err)
			}
			if prev, ok := got[c.name]; ok && prev != d {
				t.Fatalf("%s: %+v renders %s, other variants %s", c.name, v, d, prev)
			}
			got[c.name] = d
		}
	}
	if *update {
		var b strings.Builder
		for _, c := range goldenCases {
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
	for _, c := range goldenCases {
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

func digest(c goldenCase, v variant) (string, error) {
	mktcache := strconv.Itoa(experiment.DefaultMarketCacheSegments)
	if v.mktcache != "" {
		mktcache = v.mktcache
	}
	var buf bytes.Buffer
	if err := run(&buf, c.exp, c.seed, "", 3, v.parallel, "medium", mktcache, c.fleetSizes, v.shards); err != nil {
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
