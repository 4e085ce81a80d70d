package cloud

import (
	"testing"
	"time"

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
