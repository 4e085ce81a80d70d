package simclock

import (
	"testing"
	"time"
)

// TestCompactionReapsCancelledEvents is the regression test for the
// fleet-scale lazy-deletion fix: scheduling many timers and cancelling
// most of them must shrink the physical queue, not just mark entries
// dead. Before compaction, 100k workloads each re-arming a completion
// timer per interruption grew the heap without bound.
func TestCompactionReapsCancelledEvents(t *testing.T) {
	eng := NewEngine()
	const n = 1000
	events := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, eng.ScheduleAfter(time.Duration(i+1)*time.Second, "timer", func() {}))
	}
	if got := eng.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	// Cancel all but the last 10. Compaction triggers as soon as the
	// cancelled count passes half the queue, so by the end the physical
	// queue must be near the live count, not near n.
	for _, ev := range events[:n-10] {
		ev.Cancel()
	}
	if got := eng.Pending(); got != 10 {
		t.Fatalf("Pending after cancel = %d, want 10", got)
	}
	if got := len(eng.queue); got > 2*10+compactThreshold {
		t.Fatalf("physical queue = %d entries after cancelling %d of %d; compaction did not reap", got, n-10, n)
	}
	// The survivors still fire, in order.
	fired := 0
	for eng.Step() {
		fired++
	}
	if fired != 10 {
		t.Fatalf("fired %d events, want 10", fired)
	}
}

// TestCompactionPreservesFiringOrder cross-checks that compacting in
// the middle of a run does not perturb the (time, seq) pop order.
func TestCompactionPreservesFiringOrder(t *testing.T) {
	run := func(cancelHalf bool) []string {
		eng := NewEngine()
		var order []string
		var evs []*Event
		for i := 0; i < 200; i++ {
			i := i
			name := string(rune('a'+i%26)) + "-" + time.Duration(i).String()
			ev := eng.ScheduleAfter(time.Duration(i%37)*time.Minute, name, func() {
				order = append(order, name)
			})
			evs = append(evs, ev)
		}
		if cancelHalf {
			for i, ev := range evs {
				if i%2 == 1 {
					ev.Cancel()
				}
			}
		}
		if err := eng.Run(time.Time{}); err != nil {
			t.Fatal(err)
		}
		if !cancelHalf {
			// Filter to the events the other run keeps.
			kept := order[:0]
			for i, name := range order {
				_ = i
				kept = append(kept, name)
			}
			order = kept
		}
		return order
	}

	full := run(false)
	compacted := run(true)
	// Every event surviving cancellation must fire in the same relative
	// order as in the uncancelled run.
	pos := make(map[string]int, len(full))
	for i, name := range full {
		pos[name] = i
	}
	last := -1
	for _, name := range compacted {
		p, ok := pos[name]
		if !ok {
			t.Fatalf("event %q fired in compacted run but not in full run", name)
		}
		if p < last {
			t.Fatalf("event %q fired out of relative order after compaction", name)
		}
		last = p
	}
}

// TestPendingCountsOnlyLiveEvents pins the Pending semantics change:
// cancelled-but-unreaped entries are excluded even below the
// compaction threshold.
func TestPendingCountsOnlyLiveEvents(t *testing.T) {
	eng := NewEngine()
	a := eng.ScheduleAfter(time.Minute, "a", func() {})
	eng.ScheduleAfter(2*time.Minute, "b", func() {})
	if got := eng.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	a.Cancel()
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
	a.Cancel() // double-cancel must not double-count
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending after double cancel = %d, want 1", got)
	}
	if !eng.Step() {
		t.Fatal("Step found no live event")
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}
