// Chaos drill: run the checkpointed NGS workload set under the severe
// control-plane fault schedule — transient DynamoDB/S3/Lambda errors, a
// 12-hour regional brownout, dropped interruption notices, and a starved
// metrics collector — and show the hardened manager completing the batch
// anyway. Prints the injector's fault ledger and the Controller's
// recovery counters so the resilience machinery is visible.
package main

import (
	"fmt"
	"log"

	"spotverse"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sim := spotverse.NewSimulation(42)

	// Build the severe fault schedule and install the injector BEFORE
	// deploying the manager, so the Lambda handlers and CloudWatch rules
	// it registers are intercepted too.
	sched := spotverse.ChaosPreset(spotverse.ChaosSevere, sim.Now())
	inj := sim.InjectChaos(sched)
	fmt.Printf("chaos schedule: intensity=%s, %d brownouts, drop-rate %.0f%%\n",
		sched.Intensity, len(sched.Brownouts), sched.DropRate*100)

	mgr, err := sim.NewManager(spotverse.ManagerConfig{
		InstanceType:     spotverse.M5XLarge,
		Threshold:        5,
		FixedStartRegion: "ca-central-1",
		// Degraded mode: discount advisor snapshots one point per six
		// hours of age, and drop regions whose data is older than two
		// days.
		DiscountStale: true,
	})
	if err != nil {
		return err
	}

	ws, err := sim.GenerateWorkloads(spotverse.WorkloadOptions{
		Kind:  spotverse.KindCheckpoint,
		Count: 12,
	})
	if err != nil {
		return err
	}
	res, err := sim.Run(spotverse.RunConfig{
		Workloads:    ws,
		Strategy:     mgr,
		InstanceType: spotverse.M5XLarge,
		// Under severe chaos a stranded workload is a finding, not a
		// harness error.
		AllowIncomplete: true,
	})
	if err != nil {
		return err
	}

	fmt.Printf("\ncompleted %d/%d workloads, %d interruptions, makespan %.1f h, cost $%.2f\n",
		res.Completed, res.Workloads, res.Interruptions, res.MakespanHours, res.TotalCostUSD)

	recoveries, trips, deferred := mgr.Controller().ResilienceStats()
	fmt.Printf("controller: %d sweep recoveries, %d breaker trips, %d executions deferred by open breakers\n",
		recoveries, trips, deferred)

	st := inj.Stats()
	fmt.Printf("\ninjected %d faults, %d dropped deliveries, %d latency spikes:\n",
		st.Total, st.Dropped, st.LatencySpikes)
	for _, k := range st.Keys() {
		fmt.Printf("  %-28s %d\n", k, st.ByKey[k])
	}
	return nil
}
