package chaos

import (
	"errors"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
)

// window is a test helper building [from, to) offsets from the epoch.
func window(fromH, toH time.Duration) Window {
	return Window{From: simclock.Epoch.Add(fromH), To: simclock.Epoch.Add(toH)}
}

func TestZeroLengthWindowInjectsNothing(t *testing.T) {
	sched := Schedule{
		Intensity: Severe,
		Brownouts: []Brownout{{
			Region: "us-east-1",
			Window: window(time.Hour, time.Hour), // From == To: empty half-open interval
		}},
		Partitions: []Partition{{
			// No Regions: all regions.
			Window: window(2*time.Hour, 2*time.Hour),
		}},
		OpOutages: []OpOutage{{
			Service: ServiceLambda, OpPrefix: "invoke",
			Window: window(3*time.Hour, 3*time.Hour),
		}},
	}
	inj := newTestInjector(sched)
	eng := inj.eng
	for _, at := range []time.Duration{time.Hour, 2 * time.Hour, 3 * time.Hour} {
		_, _ = eng.ScheduleAt(simclock.Epoch.Add(at), "probe", func() {})
	}
	for eng.Pending() > 0 {
		eng.Step()
		if err := inj.Fault(ServiceDynamo, "put", "us-east-1"); err != nil {
			t.Fatalf("zero-length window injected %v at %v", err, eng.Now())
		}
		if err := inj.Fault(ServiceLambda, "invoke:fn", ""); err != nil {
			t.Fatalf("zero-length op outage injected %v at %v", err, eng.Now())
		}
	}
}

func TestExactlyAdjacentWindowsNoGapNoOverlap(t *testing.T) {
	// Two brownouts meeting exactly at hour 2: the half-open semantics
	// must hand the boundary instant to the second window — continuous
	// coverage across [1h, 3h), exactly one matching window at every
	// instant, and clean air on both sides.
	sched := Schedule{
		Intensity: Medium,
		Brownouts: []Brownout{
			{Region: "us-east-1", Window: window(time.Hour, 2*time.Hour)},
			{Region: "us-east-1", Window: window(2*time.Hour, 3*time.Hour)},
		},
	}
	inj := newTestInjector(sched)
	eng := inj.eng
	probes := []struct {
		at   time.Duration
		want bool
	}{
		{59 * time.Minute, false},
		{time.Hour, true},                     // first window's closed edge
		{2*time.Hour - time.Nanosecond, true}, // last instant of the first
		{2 * time.Hour, true},                 // boundary: second window owns it
		{3*time.Hour - time.Nanosecond, true},
		{3 * time.Hour, false}, // open edge: outside both
	}
	for _, p := range probes {
		probe := p
		_, _ = eng.ScheduleAt(simclock.Epoch.Add(probe.at), "probe", func() {
			err := inj.Fault(ServiceDynamo, "put", "us-east-1")
			if got := err != nil; got != probe.want {
				t.Errorf("at %v: fault=%v, want %v (err=%v)", probe.at, got, probe.want, err)
			}
			if err != nil && !errors.Is(err, Unavailable) {
				t.Errorf("at %v: class %v, want Unavailable", probe.at, err)
			}
		})
	}
	for eng.Pending() > 0 {
		eng.Step()
	}
	// Exactly one injection per in-window probe: adjacency must not
	// double-count the boundary instant.
	if got := inj.Stats().Total; got != 4 {
		t.Fatalf("injected %d faults, want 4 (one per in-window probe)", got)
	}
}

func TestOverlappingWindowsAcrossFaultKinds(t *testing.T) {
	// A brownout, a partition, and an op outage all covering hour 1-3 on
	// overlapping scopes. Precedence is positional: brownouts are checked
	// before partitions, partitions before op outages — each call fails
	// exactly once with the first matching kind, and the draw-free checks
	// never consume randomness that would shift the rate streams.
	sched := Schedule{
		Intensity: Severe,
		Brownouts: []Brownout{{
			Region:   "us-east-1",
			Services: []string{ServiceDynamo},
			Window:   window(time.Hour, 3*time.Hour),
		}},
		Partitions: []Partition{{
			Regions: []catalog.Region{"us-east-1", "eu-west-1"},
			Window:  window(time.Hour, 3*time.Hour),
		}},
		OpOutages: []OpOutage{{
			Service: ServiceS3, OpPrefix: "get",
			Window: window(time.Hour, 3*time.Hour),
		}},
	}
	inj := newTestInjector(sched)
	eng := inj.eng
	_, _ = eng.ScheduleAt(simclock.Epoch.Add(2*time.Hour), "probe", func() {
		// Dynamo in us-east-1: brownout and partition both match; the
		// brownout wins.
		if err := inj.Fault(ServiceDynamo, "put", "us-east-1"); !errors.Is(err, Unavailable) {
			t.Errorf("dynamo@us-east-1 = %v, want Unavailable (brownout precedence)", err)
		}
		// S3 get in eu-west-1: partition and op outage both match; the
		// partition wins.
		if err := inj.Fault(ServiceS3, "get", "eu-west-1"); !errors.Is(err, Partitioned) {
			t.Errorf("s3 get@eu-west-1 = %v, want Partitioned (partition precedence)", err)
		}
		// S3 get in ap-south-1: only the op outage matches.
		if err := inj.Fault(ServiceS3, "get", "ap-south-1"); !errors.Is(err, Unavailable) {
			t.Errorf("s3 get@ap-south-1 = %v, want Unavailable (op outage)", err)
		}
	})
	for eng.Pending() > 0 {
		eng.Step()
	}
	st := inj.Stats()
	if st.ByKey[ServiceDynamo+"/unavailable"] != 1 ||
		st.ByKey[ServiceS3+"/partitioned"] != 1 ||
		st.ByKey[ServiceS3+"/unavailable"] != 1 {
		t.Fatalf("stats = %v, want one unavailable(dynamo), one partitioned(s3), one unavailable(s3)", st.ByKey)
	}
}

func TestPartitionMatchesRegionsServicesAndHome(t *testing.T) {
	sched := Schedule{
		Intensity: Low,
		Partitions: []Partition{{
			Regions:  []catalog.Region{"us-east-1"},
			Services: []string{ServiceDynamo, ServiceEventBridge},
			Window:   window(0, time.Hour),
		}},
	}
	inj := newTestInjector(sched)
	// Non-regional calls are attributed to the home region, so a
	// partition of us-east-1 severs the whole non-regional control plane.
	if err := inj.Fault(ServiceDynamo, "put", ""); !errors.Is(err, Partitioned) {
		t.Fatalf("non-regional dynamo call = %v, want Partitioned via home region", err)
	}
	if err := inj.Fault(ServiceDynamo, "put", "eu-west-1"); err != nil {
		t.Fatalf("dynamo@eu-west-1 = %v, want nil (region not partitioned)", err)
	}
	if err := inj.Fault(ServiceS3, "get", "us-east-1"); err != nil {
		t.Fatalf("s3@us-east-1 = %v, want nil (service not partitioned)", err)
	}
	var ce *Error
	err := inj.Fault(ServiceEventBridge, "put", "us-east-1")
	if !errors.As(err, &ce) || ce.Service != ServiceEventBridge || !errors.Is(err, Partitioned) {
		t.Fatalf("eventbridge@us-east-1 = %v, want typed Partitioned error", err)
	}
}

func TestPartitionsDrawNoRandomness(t *testing.T) {
	// Adding partitions to a schedule must not shift the per-service
	// rate streams: the same fault sequence falls out with and without
	// a (never-matching) partition and with an always-matching one.
	base := Preset(Severe, simclock.Epoch)
	with := Preset(Severe, simclock.Epoch)
	with.Partitions = []Partition{{
		Regions: []catalog.Region{"sa-east-1"},
		Window:  window(100*time.Hour, 200*time.Hour),
	}}
	a, b := newTestInjector(base), newTestInjector(with)
	for i := 0; i < 500; i++ {
		ea := a.Fault(ServiceDynamo, "put", "eu-west-1")
		eb := b.Fault(ServiceDynamo, "put", "eu-west-1")
		if (ea == nil) != (eb == nil) {
			t.Fatalf("call %d diverged with inert partition present: %v vs %v", i, ea, eb)
		}
	}
}
