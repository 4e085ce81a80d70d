package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTraceRoundTrip(t *testing.T) {
	in := []TraceEntry{
		{AtMS: 0, Endpoint: EndpointPlace, WorkloadID: "wl-1", Count: 2, Exclude: []string{"us-east-1"}},
		{AtMS: 5, Endpoint: EndpointAdvisor},
		{AtMS: 5, Endpoint: EndpointMigrations},
		{AtMS: 17, Endpoint: EndpointPlace, WorkloadID: "wl-2"},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].AtMS != in[i].AtMS || out[i].Endpoint != in[i].Endpoint ||
			out[i].WorkloadID != in[i].WorkloadID || out[i].Count != in[i].Count {
			t.Fatalf("entry %d mismatch: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestReadTraceSkipsCommentsAndBlanks(t *testing.T) {
	src := "# a comment\n\n{\"at_ms\":1,\"endpoint\":\"place\"}\n  \n{\"at_ms\":2,\"endpoint\":\"advisor\"}\n"
	out, err := ReadTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("parsed %d entries, want 2", len(out))
	}
}

func TestReadTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown endpoint": `{"at_ms":1,"endpoint":"teleport"}`,
		"negative at_ms":   `{"at_ms":-4,"endpoint":"place"}`,
		"unsorted": `{"at_ms":9,"endpoint":"place"}
{"at_ms":3,"endpoint":"place"}`,
		"not json": `at_ms=1 endpoint=place`,
	}
	for name, src := range cases {
		if _, err := ReadTrace(strings.NewReader(src)); err == nil {
			t.Errorf("%s: ReadTrace accepted %q", name, src)
		}
	}
}

func TestConfigNormalizedDefaults(t *testing.T) {
	c := Config{}.normalized()
	if c.Workers != DefaultWorkers || c.QueueDepth != DefaultQueueDepth ||
		c.RatePerSec != DefaultRatePerSec || c.Burst != 2*DefaultRatePerSec ||
		c.Deadline != DefaultDeadline || c.MaxEstimatedWait != DefaultDeadline/2 ||
		c.DrainDeadline != DefaultDrainDeadline || c.ServiceTime != DefaultServiceTime ||
		c.BreakerFailures != DefaultBreakerFailures || c.BreakerCooldown != DefaultBreakerCooldown {
		t.Fatalf("normalized defaults wrong: %+v", c)
	}
}

// zeroClock and nopBackend satisfy New's required fields for tests
// that never serve a request.
type zeroClock struct{}

func (zeroClock) Now() time.Time { return time.Time{} }

type nopBackend struct{ Backend }

func TestNewRejectsBurstBelowPlaceCost(t *testing.T) {
	// A 0.3/s rate defaults Burst to 0.6, which can never hold one
	// placement's cost: every /v1/place would be shed forever.
	_, err := New(Config{RatePerSec: 0.3, Clock: zeroClock{}}, nopBackend{})
	if err == nil || !strings.Contains(err.Error(), "burst 0.6") || !strings.Contains(err.Error(), "cost 1") {
		t.Fatalf("New with burst 0.6 = %v, want an error naming burst 0.6 and cost 1", err)
	}
	if _, err := New(Config{RatePerSec: 0.3, Burst: CostPlace, Clock: zeroClock{}}, nopBackend{}); err != nil {
		t.Fatalf("New with burst == CostPlace = %v, want nil", err)
	}
}

func TestEndpointCost(t *testing.T) {
	if EndpointCost(EndpointPlace) != CostPlace ||
		EndpointCost(EndpointAdvisor) != CostAdvisor ||
		EndpointCost(EndpointMigrations) != CostMigrations ||
		EndpointCost("mystery") != CostPlace {
		t.Fatal("endpoint cost mapping wrong")
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 99); got != 0 {
		t.Fatalf("empty percentile = %d, want 0", got)
	}
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Fatalf("p50 = %d, want 5", got)
	}
	if got := percentile(xs, 99); got != 10 {
		t.Fatalf("p99 = %d, want 10", got)
	}
}
