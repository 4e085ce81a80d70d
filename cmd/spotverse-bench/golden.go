package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenJSON pins the SHA-256 of every deterministic output: the -exp all
// sweep text, the fleet tables and the replay summary, per seed.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldenSeeds are the default seed and the held-out one.
var goldenSeeds = []int64{42, 7}

// goldenFile maps seed → workload → hex SHA-256 of the output.
type goldenFile map[string]map[string]string

func loadGolden() (goldenFile, error) {
	g := goldenFile{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// updateGolden reruns every deterministic workload once per golden seed
// and writes the digests to path. A run whose checks fail is not pinned.
func updateGolden(p pass, path string) error {
	g := goldenFile{}
	for _, seed := range goldenSeeds {
		key := strconv.FormatInt(seed, 10)
		g[key] = map[string]string{}
		for _, w := range workloads {
			if w.live {
				continue
			}
			r, err := p.spawn(w, seed, runUnit)
			if err != nil {
				return err
			}
			if len(r.rep.Failures) > 0 {
				return fmt.Errorf("golden: %s at seed %d: %v", w.name, seed, r.rep.Failures)
			}
			g[key][w.name] = r.rep.Hash
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
