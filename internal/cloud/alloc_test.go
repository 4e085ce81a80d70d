package cloud

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"spotverse/internal/catalog"
	"spotverse/internal/raceflag"
)

// TestFleetSweepAllocFree is the runtime half of the //spotverse:hotpath
// gate on EvaluateOpenRequests: a retry sweep over open requests that
// all fail their launch roll (the steady state during an outage) must
// not allocate — the open index compacts in place and evaluate returns
// before scheduling a fulfill.
func TestFleetSweepAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	eng, p := newProvider(7)
	region := catalog.Region("eu-north-1")
	// Launches in the region fail for a week: every request stays open
	// and every sweep iteration takes the failed-roll early return.
	if err := p.mkt.InjectOutage(region, eng.Now(), eng.Now().Add(7*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := p.RequestSpot(catalog.M5XLarge, region, "w"); err != nil {
			t.Fatal(err)
		}
	}
	p.EvaluateOpenRequests() // warm market walks for the evaluation instant
	allocs := testing.AllocsPerRun(100, func() {
		if n := p.EvaluateOpenRequests(); n != 50 {
			t.Fatalf("sweep evaluated %d requests, want 50", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("fleet retry sweep allocated %v per run, want 0", allocs)
	}
}

// TestAppendSeqIDZeroAlloc pins the ID-formatting hot path: appending
// into the provider's reused scratch buffer must not touch the heap.
// One ID is minted per launch, so a single stray allocation here is a
// whole-run regression.
func TestAppendSeqIDZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	buf := make([]byte, 0, 32)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = appendSeqID(buf[:0], "sir", 12345678)
	})
	if allocs != 0 {
		t.Errorf("appendSeqID allocates %.1f per call, want 0", allocs)
	}
	if got := string(appendSeqID(nil, "i", 7)); got != "i-000007" {
		t.Errorf("appendSeqID zero-padding: got %q, want %q", got, "i-000007")
	}
	if got := string(appendSeqID(nil, "sir", 12345678)); got != "sir-12345678" {
		t.Errorf("appendSeqID wide seq: got %q, want %q", got, "sir-12345678")
	}
}

// TestRecordSizes guards the two records the fleet path allocates once
// per launch and once per spot request. The market handle and AZ index
// replace the type, region, AZ and ID strings; carrying them next to the
// strings instead made Instance 224 B and SpotRequest 120 B, and raised
// the fleet-100k benchmark's alloc_mb from 614 to 637 (+3.7%, against a
// 5% bound).
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(Instance{}); got > 208 {
		t.Errorf("Instance is %d B, want <= 208", got)
	}
	if got := unsafe.Sizeof(SpotRequest{}); got > 112 {
		t.Errorf("SpotRequest is %d B, want <= 112", got)
	}
}

// TestInstanceIDRendersAndSortsAsString pins the numeric ID to the
// string it replaced: "i-" and six zero-padded digits, empty for the
// zero ID, and ordered as those strings sort, including past seq
// 999,999 where string order and numeric order part.
func TestInstanceIDRendersAndSortsAsString(t *testing.T) {
	for id, want := range map[InstanceID]string{0: "", 7: "i-000007", 999999: "i-999999", 1234567: "i-1234567"} {
		if got := id.String(); got != want {
			t.Errorf("InstanceID(%d).String() = %q, want %q", int(id), got, want)
		}
	}
	ids := []InstanceID{1, 9, 10, 99999, 100000, 999998, 999999, 1000000, 1000001, 9999999, 10000000, 123456789}
	for _, a := range ids {
		for _, b := range ids {
			if got, want := a.Compare(b), strings.Compare(a.String(), b.String()); got != want {
				t.Errorf("Compare(%d, %d) = %d, string order %d", int(a), int(b), got, want)
			}
		}
	}
}

// TestBatchedFulfillWarmAllocFree: a fired fulfill bucket goes back to
// the pool with its event and array, so a warm bucket — created, armed
// and fired — allocates nothing. The request is settled, so firing the
// bucket launches nothing and only the batching is measured.
func TestBatchedFulfillWarmAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	eng, p := newProvider(7)
	req := &SpotRequest{State: RequestActive}
	run := func() {
		p.scheduleBatchedFulfill(req)
		p.scheduleBatchedFulfill(req)
		if !eng.Step() {
			t.Fatal("no bucket event fired")
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("warm batched-fulfill bucket allocated %v per run, want 0", allocs)
	}
	if got := p.BatchEventsFired(); got != 202 {
		t.Fatalf("fired %d bucket events, want 202", got)
	}
}

// TestRelaunchCycleWarmAllocFree: once warm, one full relaunch cycle —
// capacity reclaim, RequestSpot from the OnTerminate subscriber, the
// fulfill bucket firing, fulfill and scheduleInterruption — allocates
// nothing. The instance and request records, the reclaim event and its
// callback come back from the provider's free lists, and the bucket from
// its pool. Each cycle starts with the retry sweep, which releases the
// previous cycle's settled request.
func TestRelaunchCycleWarmAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	eng, p := newProvider(3)
	region := catalog.Region("ca-central-1")
	o, ok := p.mkt.Offer(catalog.M5XLarge, region)
	if !ok {
		t.Fatal("no m5.xlarge offer in ca-central-1")
	}
	// Materialise the price, placement and hazard walks well past the
	// cycles' instants, so growing them is not counted.
	far := eng.Now().Add(3 * 365 * 24 * time.Hour)
	o.SpotPrice(far)
	p.mkt.LaunchSuccessProbabilityOf(o, far)
	p.mkt.SeasonalHazardPerHourOf(o, far)

	reclaims := 0
	p.OnTerminate(func(_ *Instance, interrupted bool) {
		if !interrupted {
			return
		}
		reclaims++
		if _, err := p.RequestSpot(catalog.M5XLarge, region, "w"); err != nil {
			t.Error(err)
		}
	})
	if _, err := p.RequestSpot(catalog.M5XLarge, region, "w"); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		p.EvaluateOpenRequests()
		for r := reclaims; reclaims == r; {
			// An idle engine means a failed launch roll left the request
			// open: re-roll it as the sweep would.
			if !eng.Step() && p.EvaluateOpenRequests() == 0 {
				t.Fatal("no reclaim pending and no open request")
			}
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("warm relaunch cycle allocated %v per cycle, want 0", allocs)
	}
	if reclaims != 204 {
		t.Fatalf("%d reclaims, want 204", reclaims)
	}
}
