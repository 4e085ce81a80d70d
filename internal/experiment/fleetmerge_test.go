package experiment

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"spotverse/internal/simclock"
	"spotverse/internal/workload"
)

// rawShard is one shard's output as the shard engine records it: the
// cost log in termination order, keyed by global workload index, and the launch and stop
// instants in the order the engine appended them.
type rawShard struct {
	costLog          []indexedCost
	launchNs, stopNs []int64
}

// referenceMerge is the canonical reduction the shard merge must
// reproduce bit for bit: concatenate every shard's cost log, stable-sort
// it by global index and sum in that order; concatenate and sort the
// launch and stop instants and replay them, applying stops before
// launches at equal instants.
func referenceMerge(shards []rawShard) (cost float64, peak int) {
	var costs []indexedCost
	var launches, stops []int64
	for _, s := range shards {
		costs = append(costs, s.costLog...)
		launches = append(launches, s.launchNs...)
		stops = append(stops, s.stopNs...)
	}
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].i < costs[j].i })
	for _, c := range costs {
		cost += c.usd
	}
	sort.Slice(launches, func(i, j int) bool { return launches[i] < launches[j] })
	sort.Slice(stops, func(i, j int) bool { return stops[i] < stops[j] })
	running, j := 0, 0
	for _, t := range launches {
		for j < len(stops) && stops[j] <= t {
			running--
			j++
		}
		running++
		peak = max(peak, running)
	}
	return cost, peak
}

// randomShards draws the outputs of a fleet of n workloads split over k
// contiguous shards. Each workload runs a few back-to-back instances on
// a coarse 20-minute grid, so launches and stops often share an instant
// within and across shards, a relaunch may start at the instant its
// predecessor stopped, and the stamps span several of the hour-wide
// windows peakRunning reads. Costs span sixteen orders of magnitude, so
// summing them in any other order changes the bits.
func randomShards(rng *rand.Rand, n, k int) []rawShard {
	const tick = int64(20 * time.Minute)
	type term struct {
		at   int64
		cost indexedCost
	}
	shards := make([]rawShard, k)
	for s := range shards {
		lo, hi := workload.ShardBounds(n, k, s)
		var terms []term
		for g := lo; g < hi; g++ {
			at := tick * int64(rng.IntN(4))
			for range rng.IntN(5) {
				stop := at + tick*int64(rng.IntN(4))
				shards[s].launchNs = append(shards[s].launchNs, at)
				shards[s].stopNs = append(shards[s].stopNs, stop)
				usd := rng.Float64() * math.Pow(10, float64(rng.IntN(17)))
				terms = append(terms, term{at: stop, cost: indexedCost{i: g, usd: usd}})
				at = stop + tick*int64(rng.IntN(3))
			}
		}
		// The engine appends in time order; workloads interleave at equal
		// instants in a random order, and a workload's terminations keep
		// their own order.
		rank := rng.Perm(hi - lo)
		sort.SliceStable(terms, func(i, j int) bool {
			if terms[i].at != terms[j].at {
				return terms[i].at < terms[j].at
			}
			return rank[terms[i].cost.i-lo] < rank[terms[j].cost.i-lo]
		})
		for _, t := range terms {
			shards[s].costLog = append(shards[s].costLog, t.cost)
		}
		sort.Slice(shards[s].launchNs, func(i, j int) bool { return shards[s].launchNs[i] < shards[s].launchNs[j] })
		sort.Slice(shards[s].stopNs, func(i, j int) bool { return shards[s].stopNs[i] < shards[s].stopNs[j] })
	}
	return shards
}

// TestMergeShardsMatchesReference feeds random shard outputs — one to
// 128 shards, as many as a large fleet's blocks, empty shards, several
// terminations per workload, costs whose sum depends on order, and
// equal instants across shards — to mergeShards and requires the
// reference reduction's exact cost bits and peak concurrency.
func TestMergeShardsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	orderMattered := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.IntN(256)
		k := 1 + rng.IntN(128)
		shards := randomShards(rng, n, k)
		f, err := workload.GenerateFleet(simclock.Stream(int64(trial), "wl"),
			workload.GenOptions{Kind: workload.KindStandard, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		cfg := &FleetShardedConfig{Fleet: f, Horizon: DefaultHorizon, AllowIncomplete: true, Shards: k}
		outs := make([]*shardOut, k)
		var termOrder float64
		for s, raw := range shards {
			lo, hi := workload.ShardBounds(n, k, s)
			outs[s] = shardOutFor(raw, lo, hi)
			for _, c := range raw.costLog {
				termOrder += c.usd
			}
		}
		label := fmt.Sprintf("trial %d (n=%d, k=%d)", trial, n, k)
		res, err := mergeShards(cfg, outs)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		wantCost, wantPeak := referenceMerge(shards)
		if math.Float64bits(res.InstanceCostUSD) != math.Float64bits(wantCost) {
			t.Errorf("%s: InstanceCostUSD = %v (%#x), reference %v (%#x)", label,
				res.InstanceCostUSD, math.Float64bits(res.InstanceCostUSD), wantCost, math.Float64bits(wantCost))
		}
		if res.PeakRunning != wantPeak {
			t.Errorf("%s: PeakRunning = %d, reference %d", label, res.PeakRunning, wantPeak)
		}
		if math.Float64bits(termOrder) != math.Float64bits(wantCost) {
			orderMattered++
		}
	}
	// The comparison is only as strong as the inputs: a good share of the
	// trials must sum to different bits in plain termination order.
	if orderMattered < 80 {
		t.Fatalf("only %d of 400 trials are order-sensitive; the generator lost its bite", orderMattered)
	}
}

// shardOutFor builds the shard output the merge consumes from one
// shard's raw logs, covering global indices [lo, hi).
func shardOutFor(raw rawShard, lo, hi int) *shardOut {
	if lo == hi {
		return &shardOut{}
	}
	log := make([]indexedCost, len(raw.costLog))
	for j, c := range raw.costLog {
		log[j] = indexedCost{i: c.i - lo, usd: c.usd}
	}
	o := &shardOut{strategyName: "random", costs: bucketCosts(log, hi-lo)}
	o.launchNs, o.stopNs = raw.launchNs, raw.stopNs
	return o
}
