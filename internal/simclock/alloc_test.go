package simclock

import (
	"testing"
	"time"

	"spotverse/internal/raceflag"
)

// TestHeapOpsAllocFree is the runtime half of the //spotverse:hotpath
// gate on the 4-ary heap comparator and sifts: at fleet scale these run
// millions of times per simulated day, and a single allocation per sift
// would dominate the event loop.
func TestHeapOpsAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	q := make(eventQueue, 0, 64)
	for i := 63; i >= 0; i-- {
		q = append(q, heapEntry{atNs: int64(i), seq: uint64(i)})
	}
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = q.less(0, 1)
		q[len(q)-1] = heapEntry{atNs: 1 << 40, seq: 1 << 20}
		q.siftUp(len(q) - 1)
		q.siftDown(0)
	})
	if allocs != 0 {
		t.Fatalf("heap ops allocated %v per run, want 0", allocs)
	}
}

// TestTickerWarmAllocFree: a ticker re-arms its one Event, so a warm
// tick costs a heap push and nothing on the Go heap. Every fleet block
// and every CloudWatch schedule runs one of these for the whole run.
func TestTickerWarmAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	e := NewEngine()
	ticks := 0
	tk := e.Every(time.Minute, "tick", func(time.Time) { ticks++ })
	e.Step() // first firing grows the queue to its steady size
	allocs := testing.AllocsPerRun(200, func() { e.Step() })
	tk.Stop()
	if allocs != 0 {
		t.Fatalf("warm ticker firing allocated %v per tick, want 0", allocs)
	}
	if ticks != 202 {
		t.Fatalf("ticker fired %d times, want 202", ticks)
	}
}
