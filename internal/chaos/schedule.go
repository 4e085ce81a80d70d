package chaos

import (
	"fmt"
	"time"

	"spotverse/internal/catalog"
)

// Intensity grades a fault schedule for the resilience sweep.
type Intensity int

// Intensities, in increasing order of injected failure mass.
const (
	// Off injects nothing; the wrapped services are pass-through and
	// runs are bit-identical to an uninjected environment.
	Off Intensity = iota
	Low
	Medium
	Severe
)

// String implements fmt.Stringer.
func (i Intensity) String() string {
	switch i {
	case Off:
		return "off"
	case Low:
		return "low"
	case Medium:
		return "medium"
	case Severe:
		return "severe"
	default:
		return "unknown"
	}
}

// ParseIntensity maps a textual intensity name ("off", "low", "medium",
// "severe") to its Intensity, rejecting anything else.
func ParseIntensity(s string) (Intensity, error) {
	for _, i := range []Intensity{Off, Low, Medium, Severe} {
		if s == i.String() {
			return i, nil
		}
	}
	return Off, fmt.Errorf("chaos: unknown intensity %q (want off, low, medium, or severe)", s)
}

// Window is a half-open time interval [From, To).
type Window struct {
	From, To time.Time
}

// Contains reports whether at falls inside the window.
func (w Window) Contains(at time.Time) bool {
	return !at.Before(w.From) && at.Before(w.To)
}

// Brownout is a sustained regional control-plane failure: every call to
// the listed services that touches Region fails Unavailable for the
// window's duration.
type Brownout struct {
	// Region the brownout hits. Empty means every region (a global
	// control-plane event). Non-regional service calls are attributed to
	// the injector's home region.
	Region catalog.Region
	// Services affected (Service* names); empty means all services.
	Services []string
	Window
}

// Partition is a regional network partition: every call to the listed
// services that touches one of the named regions fails Partitioned for
// the window's duration. Unlike a Brownout — where the service itself
// is down — a partition models the network between the caller and the
// region being cut while the region keeps running, which is the
// precondition for split-brain control planes.
type Partition struct {
	// Regions cut off by the partition; empty means every region.
	Regions []catalog.Region
	// Services affected (Service* names); empty means all services.
	Services []string
	Window
}

// SplitBrain is a double-controller fault: for the window's duration a
// rival controller incarnation runs concurrently with the primary,
// both subscribed to interruption events and both sweeping the same
// journal. The injector cannot spawn controllers itself; harnesses
// (the experiment package's chaos cells) actuate the windows. Surviving
// one requires the lease-fenced commit path (core.Config.Lease).
type SplitBrain struct {
	Window
}

// OpOutage fails every call whose op starts with OpPrefix on one
// service during the window — e.g. silencing the Monitor's collector
// Lambda so advisor snapshots age out.
type OpOutage struct {
	Service  string
	OpPrefix string
	Window
}

// ControllerKill schedules a control-plane crash: at At the controller's
// in-memory registries (pending migrations, breakers, monitor caches)
// are lost and the controller cold-starts, rebuilding state from its
// DynamoDB journal — or from nothing, when journaling is disabled.
type ControllerKill struct {
	At time.Time
}

// ObjectCorruption flips a bit in objects read from Bucket under
// KeyPrefix during the window: each Get draws independently against
// Rate, modelling silent storage corruption surfacing on the read path.
type ObjectCorruption struct {
	Bucket    string
	KeyPrefix string
	Rate      float64
	Window
}

// BucketLoss destroys every object in Bucket at At — a whole-bucket
// regional data-loss event. The bucket itself stays usable afterwards,
// so replication can repopulate it.
type BucketLoss struct {
	Bucket string
	At     time.Time
}

// Rates are per-call fault probabilities for one service.
type Rates struct {
	// Transient is the probability a call fails with a Transient error.
	Transient float64
	// Throttle is the probability a call fails with a Throttle error
	// (drawn after the transient check passes).
	Throttle float64
}

// Schedule declares what an Injector injects. The zero value injects
// nothing.
type Schedule struct {
	// Intensity labels the schedule; Off short-circuits all injection
	// regardless of the other fields.
	Intensity Intensity
	// ErrorRates maps service name to per-call fault probabilities.
	ErrorRates map[string]Rates
	// LatencySpikeRate is the probability a Lambda invocation is slowed
	// by LatencySpike (modelling cold starts and degraded dependencies).
	LatencySpikeRate float64
	// LatencySpike is the added invocation duration when a spike hits.
	LatencySpike time.Duration
	// Brownouts are sustained regional service-family failures.
	Brownouts []Brownout
	// Partitions cut the network to whole regions for a window; affected
	// calls fail Partitioned. Checked after Brownouts, before error
	// rates — like brownouts they are deterministic and draw no
	// randomness, so adding partitions never shifts the rate streams.
	Partitions []Partition
	// SplitBrains run a rival controller incarnation for each window
	// (actuated by harnesses, not the injector; see SplitBrain).
	SplitBrains []SplitBrain
	// OpOutages fail specific ops for a window (e.g. the metrics
	// collector, to starve the Optimizer of fresh advisor data).
	OpOutages []OpOutage
	// DropRate is the probability one matched EventBridge rule delivery
	// is silently lost — a lost 2-minute interruption notice.
	DropRate float64
	// DropDetailTypes restricts DropRate to the listed detail types;
	// empty means every delivery is at risk.
	DropDetailTypes []string
	// ControllerKills crash the control plane at scheduled sim times.
	// The injector cannot reach the controller itself; harnesses (see
	// experiment.ScheduleControllerKills) schedule the restarts.
	ControllerKills []ControllerKill
	// ObjectCorruptions bit-flip S3 reads matching bucket/prefix windows.
	ObjectCorruptions []ObjectCorruption
	// BucketLosses wipe whole buckets at scheduled sim times.
	BucketLosses []BucketLoss
}

// Enabled reports whether the schedule can inject anything at all.
func (s Schedule) Enabled() bool { return s.Intensity != Off }

// Preset returns the canonical schedule for an intensity, with windowed
// events anchored at start (the simulation's clock origin). Callers may
// append further Brownouts or OpOutages before handing it to an
// Injector.
func Preset(i Intensity, start time.Time) Schedule {
	switch i {
	case Low:
		return Schedule{
			Intensity: Low,
			ErrorRates: map[string]Rates{
				ServiceDynamo:     {Transient: 0.02},
				ServiceS3:         {Transient: 0.02, Throttle: 0.01},
				ServiceLambda:     {Transient: 0.02},
				ServiceCloudWatch: {Transient: 0.01},
				ServiceStepFn:     {Transient: 0.01},
				ServiceEFS:        {Transient: 0.02},
			},
			LatencySpikeRate: 0.05,
			LatencySpike:     2 * time.Second,
			DropRate:         0.02,
		}
	case Medium:
		return Schedule{
			Intensity: Medium,
			ErrorRates: map[string]Rates{
				ServiceDynamo:     {Transient: 0.06, Throttle: 0.02},
				ServiceS3:         {Transient: 0.06, Throttle: 0.02},
				ServiceLambda:     {Transient: 0.06},
				ServiceCloudWatch: {Transient: 0.03},
				ServiceStepFn:     {Transient: 0.03},
				ServiceEFS:        {Transient: 0.06},
			},
			LatencySpikeRate: 0.10,
			LatencySpike:     10 * time.Second,
			DropRate:         0.08,
			Brownouts: []Brownout{{
				// A partial brownout while the batch is still running:
				// DynamoDB and Lambda fail in the home region but the
				// CloudWatch sweep and Step Functions stay alive, so the
				// Controller keeps retrying into the outage.
				Region:   "us-east-1",
				Services: []string{ServiceDynamo, ServiceLambda},
				Window:   Window{From: start.Add(8 * time.Hour), To: start.Add(14 * time.Hour)},
			}},
		}
	case Severe:
		return Schedule{
			Intensity: Severe,
			ErrorRates: map[string]Rates{
				ServiceDynamo:     {Transient: 0.15, Throttle: 0.05},
				ServiceS3:         {Transient: 0.15, Throttle: 0.05},
				ServiceLambda:     {Transient: 0.15},
				ServiceCloudWatch: {Transient: 0.08},
				ServiceStepFn:     {Transient: 0.08},
				ServiceEFS:        {Transient: 0.15},
			},
			LatencySpikeRate: 0.15,
			LatencySpike:     30 * time.Second,
			DropRate:         0.25,
			Brownouts: []Brownout{
				{
					// Hour 6: DynamoDB and Lambda fall over in the home
					// region for 12 hours, squarely inside the
					// interruption-heavy phase of a 10-11 h workload batch.
					// The sweep and Step Functions stay alive, so retries
					// hammer the outage until the breakers trip.
					Region:   "us-east-1",
					Services: []string{ServiceDynamo, ServiceLambda},
					Window:   Window{From: start.Add(6 * time.Hour), To: start.Add(18 * time.Hour)},
				},
				{
					// Day 4: a shorter full control-plane blackout —
					// during it even the sweep timer misses its ticks.
					Region: "us-east-1",
					Window: Window{From: start.Add(78 * time.Hour), To: start.Add(86 * time.Hour)},
				},
			},
		}
	default:
		return Schedule{Intensity: Off}
	}
}
