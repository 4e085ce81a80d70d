package chaos

import (
	"sort"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
)

// homeRegion is where non-regional service calls (DynamoDB tables,
// Lambda invocations, the event bus) are attributed when a brownout
// names a region.
const homeRegion = catalog.Region("us-east-1")

// Injector draws faults for service calls according to a Schedule. Each
// service uses its own named RNG stream, so the fault sequence seen by
// one service does not depend on the call volume of another, and an Off
// schedule draws nothing at all.
type Injector struct {
	eng   *simclock.Engine
	seed  int64
	sched Schedule
	rngs  map[string]*simclock.RNG

	injected  map[string]int // "service/class" -> count
	total     int
	dropped   int
	latSpikes int
	corrupted int
}

// NewInjector builds an injector over the engine's clock. The seed
// should be the experiment's master seed; streams are derived per
// service.
func NewInjector(eng *simclock.Engine, seed int64, sched Schedule) *Injector {
	return &Injector{
		eng:      eng,
		seed:     seed,
		sched:    sched,
		rngs:     make(map[string]*simclock.RNG),
		injected: make(map[string]int),
	}
}

// Schedule returns the active schedule.
func (inj *Injector) Schedule() Schedule { return inj.sched }

func (inj *Injector) rng(name string) *simclock.RNG {
	g, ok := inj.rngs[name]
	if !ok {
		g = simclock.Stream(inj.seed, "chaos/"+name)
		inj.rngs[name] = g
	}
	return g
}

func (inj *Injector) record(service string, class error) {
	inj.total++
	inj.injected[service+"/"+className(class)]++
}

func (inj *Injector) fail(service, op string, region catalog.Region, class error) error {
	inj.record(service, class)
	return &Error{Class: class, Service: service, Op: op, Region: region}
}

// Fault decides whether one API call fails, returning the injected
// error or nil. Brownouts and op outages are checked first (they are
// deterministic and draw no randomness); per-call rates draw from the
// service's stream.
func (inj *Injector) Fault(service, op string, region catalog.Region) error {
	if inj == nil || !inj.sched.Enabled() {
		return nil
	}
	now := inj.eng.Now()
	target := region
	if target == "" {
		target = homeRegion
	}
	for _, b := range inj.sched.Brownouts {
		if !b.Contains(now) {
			continue
		}
		if b.Region != "" && b.Region != target {
			continue
		}
		if len(b.Services) > 0 && !containsString(b.Services, service) {
			continue
		}
		return inj.fail(service, op, region, Unavailable)
	}
	for _, p := range inj.sched.Partitions {
		if !p.Contains(now) {
			continue
		}
		if len(p.Regions) > 0 && !containsRegion(p.Regions, target) {
			continue
		}
		if len(p.Services) > 0 && !containsString(p.Services, service) {
			continue
		}
		return inj.fail(service, op, region, Partitioned)
	}
	for _, o := range inj.sched.OpOutages {
		if o.Service == service && hasPrefix(op, o.OpPrefix) && o.Contains(now) {
			return inj.fail(service, op, region, Unavailable)
		}
	}
	rates, ok := inj.sched.ErrorRates[service]
	if !ok {
		return nil
	}
	if rates.Transient > 0 && inj.rng(service).Bool(rates.Transient) {
		return inj.fail(service, op, region, Transient)
	}
	if rates.Throttle > 0 && inj.rng(service).Bool(rates.Throttle) {
		return inj.fail(service, op, region, Throttle)
	}
	return nil
}

// ServiceFault returns a closure suitable for a service's SetFault hook.
// The returned func has the shared interceptor signature, assignable to
// each service package's named FaultFunc type.
func (inj *Injector) ServiceFault(service string) func(op string, region catalog.Region) error {
	return func(op string, region catalog.Region) error {
		return inj.Fault(service, op, region)
	}
}

// Latency returns the extra duration to add to one Lambda invocation
// (zero when no spike hits). Spikes draw from their own stream so they
// do not shift the fault draws.
func (inj *Injector) Latency(op string) time.Duration {
	if inj == nil || !inj.sched.Enabled() || inj.sched.LatencySpikeRate <= 0 {
		return 0
	}
	if inj.rng(ServiceLambda + "/latency").Bool(inj.sched.LatencySpikeRate) {
		inj.latSpikes++
		return inj.sched.LatencySpike
	}
	return 0
}

// CorruptGet decides whether one S3 Get of bucket/key returns bit-flipped
// data, suitable for the store's SetCorrupt hook. Draws come from a
// dedicated stream so enabling corruption never shifts the fault draws.
func (inj *Injector) CorruptGet(bucket, key string) bool {
	if inj == nil || !inj.sched.Enabled() || len(inj.sched.ObjectCorruptions) == 0 {
		return false
	}
	now := inj.eng.Now()
	for _, oc := range inj.sched.ObjectCorruptions {
		if oc.Bucket != bucket || !hasPrefix(key, oc.KeyPrefix) || !oc.Contains(now) || oc.Rate <= 0 {
			continue
		}
		if inj.rng(ServiceS3 + "/corrupt").Bool(oc.Rate) {
			inj.corrupted++
			return true
		}
	}
	return false
}

// Drop decides whether one matched EventBridge rule delivery is lost,
// suitable for the bus's SetDrop hook.
func (inj *Injector) Drop(rule, source, detailType string) bool {
	if inj == nil || !inj.sched.Enabled() || inj.sched.DropRate <= 0 {
		return false
	}
	if len(inj.sched.DropDetailTypes) > 0 && !containsString(inj.sched.DropDetailTypes, detailType) {
		return false
	}
	if inj.rng(ServiceEventBridge + "/drop").Bool(inj.sched.DropRate) {
		inj.dropped++
		return true
	}
	return false
}

// Stats summarises what was injected so far.
type Stats struct {
	// Total faults injected across all services.
	Total int
	// Dropped EventBridge deliveries.
	Dropped int
	// LatencySpikes counts slowed Lambda invocations.
	LatencySpikes int
	// Corrupted counts bit-flipped S3 reads.
	Corrupted int
	// ByKey maps "service/class" to injected counts, for reporting.
	ByKey map[string]int
}

// Keys returns the ByKey keys sorted, for deterministic rendering.
func (s Stats) Keys() []string {
	out := make([]string, 0, len(s.ByKey))
	for k := range s.ByKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats reports injection counters (copies; safe to retain).
func (inj *Injector) Stats() Stats {
	by := make(map[string]int, len(inj.injected))
	for k, v := range inj.injected {
		by[k] = v
	}
	return Stats{Total: inj.total, Dropped: inj.dropped, LatencySpikes: inj.latSpikes, Corrupted: inj.corrupted, ByKey: by}
}

func containsRegion(xs []catalog.Region, want catalog.Region) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
