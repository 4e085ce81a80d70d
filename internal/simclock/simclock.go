// Package simclock provides a deterministic discrete-event simulation
// engine: a virtual clock, a priority event queue, cancellable timers, and
// seeded random-number streams.
//
// Everything in the SpotVerse reproduction — spot markets, instances,
// Lambda invocations, Galaxy jobs — advances on a single Engine. Events
// scheduled for the same instant fire in schedule order (FIFO), which keeps
// runs bit-for-bit reproducible for a given seed.
package simclock

import (
	"errors"
	"fmt"
	"time"
)

// Epoch is the default start of simulated time. The concrete date is
// arbitrary; experiments only ever use durations relative to it.
var Epoch = time.Date(2024, time.March, 4, 0, 0, 0, 0, time.UTC)

// ErrStopped is returned by Run when the engine was stopped explicitly.
var ErrStopped = errors.New("simclock: engine stopped")

// Event is a scheduled callback. The callback runs with the clock set to
// the event's due time.
type Event struct {
	at     time.Time
	seq    uint64
	fn     func()
	cancel bool
	done   bool // popped for execution; Cancel is a no-op from then on
	name   string
	eng    *Engine
}

// At reports the simulated time the event fires.
func (e *Event) At() time.Time { return e.at }

// Name reports the debug label given at scheduling time.
func (e *Event) Name() string { return e.name }

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was cancelled) is a no-op. Cancel reports whether the
// event was still pending.
//
// Cancelled events are deleted lazily: they stay in the queue until
// popped, but once they outnumber live events the engine compacts them
// away in one pass, so a workload that schedules and cancels millions of
// timers keeps the queue sized to its live events.
func (e *Event) Cancel() bool {
	if e.cancel || e.done {
		return false
	}
	e.cancel = true
	if e.eng != nil {
		e.eng.noteCancelled()
	}
	return true
}

// heapEntry keeps the ordering key inline with the queue slice so the
// comparator never chases an *Event pointer: at fleet scale the queue
// holds tens of thousands of entries and every sift comparison on a
// []*Event layout is a cache miss into a scattered Event allocation.
type heapEntry struct {
	atNs int64 // at.UnixNano(); simulated instants fit int64 nanoseconds
	seq  uint64
	ev   *Event
}

type eventQueue []heapEntry

// less is a total order over (time, seq): seq values are unique, so any
// valid binary heap of the same entries pops in the identical sequence.
//
//spotverse:hotpath
func (q eventQueue) less(i, j int) bool {
	if q[i].atNs != q[j].atNs {
		return q[i].atNs < q[j].atNs
	}
	return q[i].seq < q[j].seq
}

// The queue is a 4-ary heap: half the depth of a binary heap, and the
// four children of a node share cache lines. Heap shape never affects
// output — the comparator is a total order, so the pop sequence is the
// sorted sequence whatever the arity.

//spotverse:hotpath
func (q eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(i, parent) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

//spotverse:hotpath
func (q eventQueue) siftDown(i int) {
	n := len(q)
	for {
		least := i
		first := 4*i + 1
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if q.less(c, least) {
				least = c
			}
		}
		if least == i {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

func (e *Engine) heapPush(ent heapEntry) {
	e.queue = append(e.queue, ent)
	e.queue.siftUp(len(e.queue) - 1)
}

func (e *Engine) heapPop() *Event {
	q := e.queue
	top := q[0].ev
	n := len(q) - 1
	q[0] = q[n]
	q[n] = heapEntry{}
	e.queue = q[:n]
	e.queue.siftDown(0)
	return top
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated components run inside the event loop.
type Engine struct {
	now     time.Time
	queue   eventQueue
	seq     uint64
	stopped bool
	fired   uint64
	// cancelled counts queue entries whose Cancel ran but that have not
	// been reaped yet; compaction keeps it at most half the queue.
	cancelled int
}

// compactThreshold is the minimum queue size before cancelled-event
// compaction kicks in; below it the lazy-deletion garbage is noise.
const compactThreshold = 64

// NewEngine returns an engine starting at Epoch.
func NewEngine() *Engine {
	return NewEngineAt(Epoch)
}

// NewEngineAt returns an engine whose clock starts at the given instant.
func NewEngineAt(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now reports current simulated time.
func (e *Engine) Now() time.Time { return e.now }

// Since reports the simulated duration elapsed since t.
func (e *Engine) Since(t time.Time) time.Duration { return e.now.Sub(t) }

// Pending reports the number of live events waiting in the queue.
// Cancelled-but-unreaped entries are excluded: they will never fire, so
// callers polling Pending for "is there work left" see only real work.
func (e *Engine) Pending() int { return len(e.queue) - e.cancelled }

// noteCancelled books one lazily-deleted event and compacts the queue
// once cancelled entries outnumber live ones.
func (e *Engine) noteCancelled() {
	e.cancelled++
	if len(e.queue) >= compactThreshold && e.cancelled*2 > len(e.queue) {
		e.compact()
	}
}

// compact removes every cancelled entry from the queue in one pass and
// re-establishes the heap invariant. Pop order is unchanged: the heap
// comparator is a total order over (time, seq), so any valid heap of the
// same live events pops identically.
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, ent := range e.queue {
		if ent.ev.cancel {
			continue
		}
		live = append(live, ent)
	}
	// Zero the tail so dropped events are collectable.
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = heapEntry{}
	}
	e.queue = live
	// (len-2)/4 is the last node with a child in a 4-ary heap; the
	// leaves below it are already valid sub-heaps.
	for i := (len(e.queue) - 2) / 4; i >= 0; i-- {
		e.queue.siftDown(i)
	}
	e.cancelled = 0
}

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ScheduleAt registers fn to run at the absolute simulated instant t.
// Scheduling in the past is an error because it would reorder history.
func (e *Engine) ScheduleAt(t time.Time, name string, fn func()) (*Event, error) {
	if t.Before(e.now) {
		return nil, fmt.Errorf("simclock: schedule %q at %s before now %s", name, t, e.now)
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn, name: name, eng: e}
	e.heapPush(heapEntry{atNs: t.UnixNano(), seq: e.seq, ev: ev})
	return ev, nil
}

// ScheduleAfter registers fn to run d after the current instant. Negative
// delays are clamped to zero.
func (e *Engine) ScheduleAfter(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	ev, err := e.ScheduleAt(e.now.Add(d), name, fn)
	if err != nil {
		// Unreachable: now+nonNegative is never before now.
		panic(err)
	}
	return ev
}

// Ticker repeatedly schedules fn every interval until the returned stop
// function is called. The first firing happens one interval from now.
type Ticker struct {
	stop bool
}

// Stop prevents future firings of the ticker.
func (t *Ticker) Stop() { t.stop = true }

// Every schedules fn to run every interval. fn receives the firing time.
// The ticker reuses one Event for every firing: after fn returns, the
// event is re-armed at now+interval with the next sequence number — the
// number a fresh ScheduleAfter would take at the same moment — so firing
// order is unchanged and a warm tick allocates nothing.
func (e *Engine) Every(interval time.Duration, name string, fn func(now time.Time)) *Ticker {
	if interval <= 0 {
		interval = time.Nanosecond
	}
	t := &Ticker{}
	ev := e.ScheduleAfter(interval, name, nil)
	ev.fn = func() {
		if t.stop {
			return
		}
		fn(e.now)
		if t.stop {
			return
		}
		e.rearm(ev, e.now.Add(interval))
	}
	return t
}

// rearm pushes a fired event back onto the queue at instant at, with a
// fresh sequence number.
func (e *Engine) rearm(ev *Event, at time.Time) {
	e.seq++
	ev.at, ev.seq, ev.done = at, e.seq, false
	e.heapPush(heapEntry{atNs: at.UnixNano(), seq: e.seq, ev: ev})
}

// Step executes the next pending event, advancing the clock to its due
// time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		next := e.heapPop()
		if next.cancel {
			e.cancelled--
			continue
		}
		next.done = true
		e.now = next.at
		e.fired++
		next.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or the horizon passes.
// A zero horizon means run to drain. Run returns ErrStopped if Stop was
// called from inside an event.
func (e *Engine) Run(horizon time.Time) error {
	e.stopped = false
	for len(e.queue) > 0 {
		if e.stopped {
			return ErrStopped
		}
		next := e.queue[0].ev
		if next.cancel {
			e.heapPop()
			e.cancelled--
			continue
		}
		if !horizon.IsZero() && next.at.After(horizon) {
			e.now = horizon
			return nil
		}
		e.Step()
	}
	if e.stopped {
		return ErrStopped
	}
	if !horizon.IsZero() && e.now.Before(horizon) {
		e.now = horizon
	}
	return nil
}

// RunFor advances the clock by d, executing all events due in the window.
func (e *Engine) RunFor(d time.Duration) error {
	return e.Run(e.now.Add(d))
}

// RunUntil executes events until pred returns true (checked after every
// event) or the queue drains. It reports whether pred was satisfied.
func (e *Engine) RunUntil(pred func() bool) bool {
	if pred() {
		return true
	}
	for e.Step() {
		if pred() {
			return true
		}
	}
	return false
}

// Stop aborts a Run in progress after the current event returns.
func (e *Engine) Stop() { e.stopped = true }
