package experiment

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
	"spotverse/internal/workload"
)

// runShardedCell runs one sharded fleet cell: `size` standard workloads
// under the named sweep arm, split over `shards` engines.
func runShardedCell(t *testing.T, arm string, size, shards int) *FleetResult {
	t.Helper()
	var arms []fleetArm
	for _, a := range fleetArms() {
		if a.name == arm {
			arms = append(arms, a)
		}
	}
	if len(arms) != 1 {
		t.Fatalf("unknown arm %q", arm)
	}
	f, err := workload.GenerateFleet(simclock.Stream(FleetSeed, "wl-standard"),
		workload.GenOptions{Kind: workload.KindStandard, Count: size})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFleetSharded(FleetSeed, FleetShardedConfig{
		Fleet:           f,
		NewStrategy:     arms[0].build,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
		Shards:          shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetShardedByteIdentical is the core invariant of the sharded
// engine: the merged result — every field, and the rendered sweep row —
// is byte-identical at any shard count, including shard counts that
// divide the fleet unevenly or exceed it. At N=1000 the fleet spans
// two blocks, so Shards 1, 3 and 8 cut it into three distinct
// partitions.
func TestFleetShardedByteIdentical(t *testing.T) {
	cases := []struct {
		size   int
		shards []int
	}{
		{size: 200, shards: []int{2, 3, 4, 8}},
		{size: 1000, shards: []int{3, 8}},
	}
	for _, c := range cases {
		for _, arm := range []string{"single-region", "skypilot"} {
			size := c.size
			ref := runShardedCell(t, arm, size, 1)
			var refBuf bytes.Buffer
			if err := RenderFleet(&refBuf, []FleetCell{{Arm: arm, Size: size, Res: ref}}); err != nil {
				t.Fatal(err)
			}
			for _, shards := range c.shards {
				got := runShardedCell(t, arm, size, shards)
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("%s n=%d: result at %d shards differs from 1 shard:\n  1: %+v\n  %d: %+v",
						arm, size, shards, ref, shards, got)
					continue
				}
				var buf bytes.Buffer
				if err := RenderFleet(&buf, []FleetCell{{Arm: arm, Size: size, Res: got}}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(refBuf.Bytes(), buf.Bytes()) {
					t.Errorf("%s n=%d: rendered row at %d shards differs from 1 shard", arm, size, shards)
				}
			}
		}
	}
}

// TestFleetShardedEdgeCases pins the shard-boundary shapes: fewer
// workloads than shards (the count is capped at the fleet size), a
// single workload, and a count that does not divide evenly.
func TestFleetShardedEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		size   int
		shards int
	}{
		{name: "fewer-workloads-than-shards", size: 5, shards: 8},
		{name: "single-workload", size: 1, shards: 4},
		{name: "non-divisible", size: 7, shards: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := runShardedCell(t, "single-region", c.size, 1)
			got := runShardedCell(t, "single-region", c.size, c.shards)
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("size %d at %d shards differs from 1 shard:\n  1: %+v\n  %d: %+v",
					c.size, c.shards, ref, c.shards, got)
			}
			if got.Workloads != c.size || got.Completed != c.size {
				t.Fatalf("size %d: completed %d/%d", c.size, got.Completed, got.Workloads)
			}
		})
	}
}

// TestFleetShardedWorkerCountInvariant runs the same sharded cell under
// a sequential and a parallel worker pool; shard fan-out must not leak
// scheduling order into the merged result.
func TestFleetShardedWorkerCountInvariant(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	seq := runShardedCell(t, "skypilot", 120, 4)
	SetWorkers(4)
	par := runShardedCell(t, "skypilot", 120, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count changed the merged result:\n  1 worker:  %+v\n  4 workers: %+v", seq, par)
	}
}

// TestFleetPartitions pins the partition count: Shards is a floor, the
// block size sets a floor of its own, and the fleet size caps both, so a
// huge shard count costs nothing. Only the pure helper runs here; no
// fleet runs at these values.
func TestFleetPartitions(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	cases := []struct{ n, shards, want int }{
		{n: 1, shards: 1, want: 1},
		{n: 1, shards: 4, want: 1},
		{n: 5, shards: 8, want: 5},
		{n: 200, shards: 3, want: 3},
		{n: fleetBlock, shards: 1, want: 1},
		{n: fleetBlock + 1, shards: 1, want: 2},
		{n: 1000, shards: 3, want: 3},
		{n: 10000, shards: 1, want: 20},
		{n: 10000, shards: 8, want: 20},
		{n: 10000, shards: 32, want: 32},
		{n: 100000, shards: 2, want: 196},
		{n: 100000, shards: 1_000_000_000, want: 100000},
		{n: 3, shards: maxInt, want: 3},
		{n: maxInt, shards: 1, want: (maxInt-1)/fleetBlock + 1},
		{n: maxInt, shards: maxInt, want: maxInt},
	}
	for _, c := range cases {
		if got := fleetPartitions(c.n, c.shards); got != c.want {
			t.Errorf("fleetPartitions(%d, %d) = %d, want %d", c.n, c.shards, got, c.want)
		}
	}
}

// TestFleetResultCheck breaks each accounting law in turn on a real
// merged result; Check must pass the result as merged and report every
// broken copy.
func TestFleetResultCheck(t *testing.T) {
	good := runShardedCell(t, "single-region", 50, 2)
	if err := good.Check(); err != nil {
		t.Fatalf("merged result fails its own check: %v", err)
	}
	breaks := map[string]func(r *FleetResult){
		"interruptions":    func(r *FleetResult) { r.Interruptions++ },
		"completions":      func(r *FleetResult) { r.CompletionsPerInterval[0]++ },
		"total-cost":       func(r *FleetResult) { r.TotalCostUSD++ },
		"on-demand":        func(r *FleetResult) { r.OnDemandLaunches = sumValues(r.LaunchesByRegion) + 1 },
		"peak-running":     func(r *FleetResult) { r.PeakRunning = r.Workloads + 1 },
		"mean-completion":  func(r *FleetResult) { r.MeanCompletionHours = r.MakespanHours + 1 },
		"launch-per-event": func(r *FleetResult) { r.EventsFired++ },
	}
	for name, brk := range breaks {
		r := *good
		r.CompletionsPerInterval = slices.Clone(good.CompletionsPerInterval)
		brk(&r)
		if err := r.Check(); err == nil {
			t.Errorf("%s: Check passed a broken result", name)
		}
	}
}

// TestFleetShardedValidation covers the remaining argument checks.
func TestFleetShardedValidation(t *testing.T) {
	if _, err := RunFleetSharded(1, FleetShardedConfig{NewStrategy: fleetArms()[0].build}); !errors.Is(err, ErrNoWorkloads) {
		t.Fatalf("nil fleet: err = %v, want ErrNoWorkloads", err)
	}
	f, err := workload.GenerateFleet(simclock.Stream(1, "wl"),
		workload.GenOptions{Kind: workload.KindStandard, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFleetSharded(1, FleetShardedConfig{Fleet: f}); !errors.Is(err, ErrNoStrategy) {
		t.Fatalf("nil strategy: err = %v, want ErrNoStrategy", err)
	}
}
