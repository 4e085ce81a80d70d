package main

// metricSpec is a gated metric as BENCHMARK.json declares it; a test
// keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the CLIs or the daemon sees,
// measured with tracing off. Every workload reports every one of them,
// because the result line of an untraced run must carry them all. bound
// is the share of the base median by which a metric may worsen before a
// change counts as a regression.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"alloc_mb", "MB", "lower", 0.05},
}

// perLayer are the traced pass's numbers that every workload reports.
// Layer CPU is given in CPU-profile samples per unit, a count: a layer a
// workload never enters reads exactly zero on it.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, l := range layers {
		out = append(out, metricSpec{Name: l + ".cpu_samples", Unit: "count", Better: "lower"})
	}
	return append(out,
		metricSpec{Name: "simclock.events", Unit: "count", Better: "lower"},
		metricSpec{Name: "cloud.launches", Unit: "count", Better: "lower"},
		metricSpec{Name: "cloud.reclaims", Unit: "count", Better: "lower"},
		metricSpec{Name: "cloud.on_demand", Unit: "count", Better: "lower"},
		metricSpec{Name: "strategy.calls", Unit: "count", Better: "lower"},
		metricSpec{Name: "serve.backend_calls", Unit: "count", Better: "lower"},
		metricSpec{Name: "serve.queue_high_water", Unit: "count", Better: "lower"},
		metricSpec{Name: "serve.shed", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.allocs_per_item", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.alloc_B_per_item", Unit: "B", Better: "lower"},
		metricSpec{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "host.cpu_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "host.parallel_eff", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "profile.coverage", Unit: "ratio", Better: "higher"},
	)
}()

// better reports whether a reads better than b.
func (s metricSpec) better(a, b float64) bool {
	if s.Better == "higher" {
		return a > b
	}
	return a < b
}

func findSpec(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
