package experiment

import (
	"fmt"
	"io"
	"strconv"

	"spotverse/internal/catalog"
	"spotverse/internal/report"
	"spotverse/internal/simclock"
	"spotverse/internal/workload"
)

// FleetSeed seeds every fleet-sweep cell; one seed keeps the sweep a
// scaling study, not a variance study.
const FleetSeed = 42

// DefaultFleetSizes is the `-exp fleet` scaling ladder.
var DefaultFleetSizes = []int{1000, 10000, 50000, 100000}

// FleetCell is one (arm, fleet size) run of the sweep.
type FleetCell struct {
	Arm  string
	Size int
	Res  *FleetResult
}

// fleetArm names a strategy configuration of the fleet sweep. The
// sweep uses the two cheap stateless arms — the per-workload cost of
// the strategy itself stays constant while the harness scales.
type fleetArm struct {
	name  string
	build builder
}

func fleetArms() []fleetArm {
	return []fleetArm{
		{name: "single-region", build: singleRegion(catalog.M5XLarge, BaselineRegionM5XLarge)},
		{name: "skypilot", build: skyPilot(catalog.M5XLarge)},
	}
}

// RunFleetCell executes one sweep cell: `size` standard workloads under
// the named arm, 14-day horizon, incomplete runs tolerated (the point
// is scaling, and a 14-day horizon completes essentially everything),
// partitioned over `shards` shard engines. The result is byte-identical
// at every shard count.
func RunFleetCell(arm string, size, shards int) (*FleetResult, error) {
	var build builder
	for _, a := range fleetArms() {
		if a.name == arm {
			build = a.build
		}
	}
	if build == nil {
		return nil, fmt.Errorf("experiment: unknown fleet arm %q", arm)
	}
	f, err := workload.GenerateFleet(simclock.Stream(FleetSeed, "wl-standard"),
		workload.GenOptions{Kind: workload.KindStandard, Count: size})
	if err != nil {
		return nil, err
	}
	return RunFleetSharded(FleetSeed, FleetShardedConfig{
		Fleet:           f,
		NewStrategy:     build,
		InstanceType:    catalog.M5XLarge,
		AllowIncomplete: true,
		Shards:          shards,
		ProfLabel:       fmt.Sprintf("fleet-%s-%d", arm, size),
	})
}

// FleetSweep runs every arm at every size, each cell partitioned over
// `shards` shard engines, the whole grid fanned out across the worker
// pool; cells land in deterministic (size, arm) order regardless of
// worker or shard count.
func FleetSweep(sizes []int, shards int) ([]FleetCell, error) {
	if len(sizes) == 0 {
		sizes = DefaultFleetSizes
	}
	arms := fleetArms()
	type cellSpec struct {
		arm  string
		size int
	}
	specs := make([]cellSpec, 0, len(sizes)*len(arms))
	for _, size := range sizes {
		for _, a := range arms {
			specs = append(specs, cellSpec{arm: a.name, size: size})
		}
	}
	return Gather(len(specs), func(i int) (FleetCell, error) {
		res, err := RunFleetCell(specs[i].arm, specs[i].size, shards)
		if err != nil {
			return FleetCell{}, fmt.Errorf("fleet %s n=%d: %w", specs[i].arm, specs[i].size, err)
		}
		return FleetCell{Arm: specs[i].arm, Size: specs[i].size, Res: res}, nil
	})
}

// RenderFleet writes the sweep table. Only simulation-deterministic
// quantities appear here — wall-clock throughput is the CLI layer's
// stderr business — so the output is byte-identical across runs and
// worker counts.
func RenderFleet(w io.Writer, cells []FleetCell) error {
	t := report.NewTable("Fleet-scale sweep — concurrent workloads per run (m5.xlarge, 14-day horizon)",
		"arm", "fleet", "completed", "interruptions", "peak_running", "events", "mean_h", "makespan_h", "cost")
	for _, c := range cells {
		t.MustAddRow(c.Arm,
			strconv.Itoa(c.Size),
			strconv.Itoa(c.Res.Completed),
			strconv.Itoa(c.Res.Interruptions),
			strconv.Itoa(c.Res.PeakRunning),
			strconv.FormatUint(c.Res.EventsFired, 10),
			report.F(c.Res.MeanCompletionHours, 2),
			report.F(c.Res.MakespanHours, 2),
			report.USD(c.Res.TotalCostUSD),
		)
	}
	return t.Render(w)
}
