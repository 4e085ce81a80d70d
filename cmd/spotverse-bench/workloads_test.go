package main

import (
	"testing"

	"spotverse/internal/catalog"
	"spotverse/internal/experiment"
	"spotverse/internal/serve"
)

func TestConservationChecksCatchViolations(t *testing.T) {
	good := func() *experiment.FleetResult {
		return &experiment.FleetResult{
			Completed:                3,
			Interruptions:            2,
			InterruptionsByRegion:    map[catalog.Region]int{"us-east-1": 1, "eu-west-1": 1},
			CompletionsPerInterval:   []int{1, 2, 0},
			InterruptionsPerInterval: []int{0, 1, 1},
			EventsFired:              5,
			InstanceCostUSD:          1.25,
			ServiceCostUSD:           0.5,
			TotalCostUSD:             1.75,
		}
	}
	if bad := checkFleet("arm", good()); len(bad) != 0 {
		t.Fatalf("a conserving result failed: %v", bad)
	}
	for name, breakIt := range map[string]func(r *experiment.FleetResult){
		"completion histogram":     func(r *experiment.FleetResult) { r.CompletionsPerInterval[0]++ },
		"interruption histogram":   func(r *experiment.FleetResult) { r.InterruptionsPerInterval[2] = 0 },
		"per-region interruptions": func(r *experiment.FleetResult) { r.InterruptionsByRegion["us-east-1"] = 3 },
		"events fired":             func(r *experiment.FleetResult) { r.EventsFired++ },
		"total cost":               func(r *experiment.FleetResult) { r.TotalCostUSD += 0.01 },
	} {
		r := good()
		breakIt(r)
		if len(checkFleet("arm", r)) == 0 {
			t.Errorf("%s: violation not reported", name)
		}
	}

	st := serve.Stats{Requests: 10, OK: 7, Degraded: 1, Shed: 1, Deadline: 1}
	if bad := checkStats(st, 10); len(bad) != 0 {
		t.Errorf("consistent stats failed: %v", bad)
	}
	if len(checkStats(st, 9)) == 0 {
		t.Error("a response the server did not count was not reported")
	}
	st.Errors = 1
	if len(checkStats(st, 10)) == 0 {
		t.Error("outcomes exceeding requests were not reported")
	}
}
