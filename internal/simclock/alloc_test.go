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

// TestOwnedEventRearmAllocFree: re-arming a caller-owned event costs a
// queue entry and nothing on the Go heap, whether the event last fired
// or was cancelled with its entry still queued.
func TestOwnedEventRearmAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	e := NewEngine()
	var ev Event
	fired := 0
	fn := func() { fired++ }
	e.ArmAfter(&ev, time.Minute, "owned", fn)
	e.Step() // the first arming grows the heap to its steady size
	if allocs := testing.AllocsPerRun(200, func() {
		e.ArmAfter(&ev, time.Minute, "owned", fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("re-arming a fired event allocated %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		e.ArmAfter(&ev, time.Minute, "owned", fn)
		ev.Cancel()
		e.ArmAfter(&ev, 2*time.Minute, "owned", fn) // the cancelled entry is still queued
		e.Step()
	}); allocs != 0 {
		t.Fatalf("re-arming a cancelled, still-queued event allocated %v per run, want 0", allocs)
	}
	if fired != 1+201+201 {
		t.Fatalf("owned event fired %d times, want %d", fired, 1+201+201)
	}
}

// TestFarPushRefillAllocFree: once the far tier exists, filing an event
// in a time bucket and loading that bucket back into the heap reuse the
// tier's nodes and the heap's array.
func TestFarPushRefillAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	e := NewEngine()
	var far, overflow Event
	fn := func() {}
	run := func() {
		e.ArmAfter(&far, 3*24*time.Hour, "far", fn)
		e.ArmAfter(&overflow, 400*24*time.Hour, "overflow", fn)
		overflow.Cancel() // its dead entries are reaped by compaction
		e.Step()          // loads the bucket holding far
	}
	run()
	if e.far == nil {
		t.Fatal("a 3-day event did not reach the far tier")
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("far push plus refill allocated %v per run, want 0", allocs)
	}
}

// TestResetReuseAllocFree: a reset keeps the heap's array and the far
// tier's nodes, so a reused engine that files the same events into both
// tiers again, with all of them still pending at the next reset, grows
// nothing.
func TestResetReuseAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	e := NewEngine()
	evs := make([]Event, 64)
	fn := func() {}
	run := func() {
		e.Reset(Epoch)
		for i := range evs {
			e.ArmAfter(&evs[i], time.Duration(i)*7*time.Hour, "owned", fn)
		}
		for range 8 {
			e.Step()
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a reset engine re-filling both tiers allocated %v per run, want 0", allocs)
	}
}

// TestArmPendingPanics: an event has one live entry at most, so arming
// one that is still pending is a caller bug.
func TestArmPendingPanics(t *testing.T) {
	e := NewEngine()
	var ev Event
	e.ArmAfter(&ev, time.Minute, "owned", func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("arming a pending event did not panic")
		}
	}()
	e.ArmAfter(&ev, time.Minute, "owned", func() {})
}
