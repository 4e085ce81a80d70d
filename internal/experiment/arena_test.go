package experiment

import (
	"reflect"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
	"spotverse/internal/workload"
)

// blockSpec names one fleet block: the seed and arm it runs under, its
// horizon, and which of parts contiguous partitions of a size-workload
// fleet it is.
type blockSpec struct {
	seed           int64
	arm            string
	horizon        time.Duration
	size, parts, k int
}

// blockRunner runs blocks one after another on one arena, as one
// worker does.
type blockRunner struct{ a *blockArena }

func newBlockRunner() *blockRunner { return &blockRunner{a: newBlockArena()} }

// run simulates the block on a freshly generated fleet and returns the
// block's output and its fleet columns.
func (r *blockRunner) run(t *testing.T, b blockSpec) (*shardOut, *workload.FleetState) {
	t.Helper()
	var arm fleetArm
	for _, a := range fleetArms() {
		if a.name == b.arm {
			arm = a
		}
	}
	if arm.build == nil {
		t.Fatalf("unknown arm %q", b.arm)
	}
	f, err := workload.GenerateFleet(simclock.Stream(b.seed, "wl-standard"),
		workload.GenOptions{Kind: workload.KindStandard, Count: b.size})
	if err != nil {
		t.Fatal(err)
	}
	cfg := FleetShardedConfig{
		Fleet:           f,
		NewStrategy:     arm.build,
		InstanceType:    catalog.M5XLarge,
		Horizon:         b.horizon,
		AllowIncomplete: true,
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = DefaultHorizon
	}
	lo, hi := workload.ShardBounds(b.size, b.parts, b.k)
	block := f.Shard(lo, hi)
	out, err := r.a.run(b.seed, simclock.SplitMixFamily(b.seed, splitmixFleetStream), &cfg, block)
	r.a.release()
	if err != nil {
		t.Fatal(err)
	}
	return out, block
}

// TestWarmBlockEqualsFresh is the differential test of block reuse: a
// block run right after other blocks on one worker must produce exactly
// what it produces on a fresh one — the whole shard output (tally,
// launch and stop stamps, costs, interruption histogram, adjusted event
// count) and every fleet column it wrote. The earlier blocks differ from
// the checked one in seed, arm and size, and some stop at a short
// horizon, which leaves completions, reclaims, fulfill buckets, open
// requests and the sweep ticker pending when the block ends.
func TestWarmBlockEqualsFresh(t *testing.T) {
	const short = 3 * time.Hour
	big := blockSpec{seed: 7, arm: "skypilot", size: 1300, parts: 2, k: 0}
	bigShort := blockSpec{seed: 7, arm: "single-region", horizon: short, size: 1300, parts: 2, k: 1}
	cases := []struct {
		name  string
		prior []blockSpec
		block blockSpec
	}{
		{
			name:  "after-larger-block",
			prior: []blockSpec{big},
			block: blockSpec{seed: 42, arm: "single-region", size: 1000, parts: 2, k: 1},
		},
		{
			name:  "after-horizon-cut",
			prior: []blockSpec{bigShort},
			block: blockSpec{seed: 42, arm: "skypilot", size: 1000, parts: 2, k: 0},
		},
		{
			name:  "horizon-cut-after-horizon-cut",
			prior: []blockSpec{big, bigShort},
			block: blockSpec{seed: 42, arm: "single-region", horizon: short, size: 1000, parts: 2, k: 1},
		},
		{
			name:  "same-block-twice",
			prior: []blockSpec{{seed: 42, arm: "skypilot", size: 1000, parts: 2, k: 1}},
			block: blockSpec{seed: 42, arm: "skypilot", size: 1000, parts: 2, k: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantFleet := newBlockRunner().run(t, c.block)
			if c.block.horizon == short && want.completed == len(wantFleet.Durations) {
				t.Fatalf("horizon-cut block completed all %d workloads; the case needs pending work", want.completed)
			}
			r := newBlockRunner()
			for _, p := range c.prior {
				r.run(t, p)
			}
			got, gotFleet := r.run(t, c.block)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("warm block output differs from fresh:\n  fresh: %+v\n  warm:  %+v", want, got)
			}
			if !reflect.DeepEqual(wantFleet, gotFleet) {
				t.Errorf("warm block fleet columns differ from fresh")
			}
		})
	}
}
