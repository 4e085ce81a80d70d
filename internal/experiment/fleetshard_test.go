package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
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
	checkFleetConservation(t, fmt.Sprintf("%s n=%d shards=%d", arm, size, shards), res)
	return res
}

// TestFleetShardedByteIdentical is the core invariant of the sharded
// engine: the merged result — every field, and the rendered sweep row —
// is byte-identical at any shard count, including shard counts that
// divide the fleet unevenly or exceed it.
func TestFleetShardedByteIdentical(t *testing.T) {
	const size = 200
	for _, arm := range []string{"single-region", "skypilot"} {
		ref := runShardedCell(t, arm, size, 1)
		var refBuf bytes.Buffer
		if err := RenderFleet(&refBuf, []FleetCell{{Arm: arm, Size: size, Res: ref}}); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 4, 8} {
			got := runShardedCell(t, arm, size, shards)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: result at %d shards differs from 1 shard:\n  1: %+v\n  %d: %+v",
					arm, shards, ref, shards, got)
				continue
			}
			var buf bytes.Buffer
			if err := RenderFleet(&buf, []FleetCell{{Arm: arm, Size: size, Res: got}}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refBuf.Bytes(), buf.Bytes()) {
				t.Errorf("%s: rendered row at %d shards differs from 1 shard", arm, shards)
			}
		}
	}
}

// TestFleetShardedEdgeCases pins the shard-boundary shapes: fewer
// workloads than shards (empty trailing shards), a single workload, and
// a count that does not divide evenly.
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
