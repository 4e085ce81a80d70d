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
//
// An Event is either returned by ScheduleAt/ScheduleAfter or owned by
// the caller and armed with ArmAfter. An owner-held event can be armed
// again once it has fired or been cancelled, so a caller that re-creates
// the same timer on every attempt allocates it once. An event belongs to
// the engine that first armed it.
type Event struct {
	at    time.Time
	seq   uint64
	fn    func()
	state eventState
	name  string
	eng   *Engine
}

type eventState uint8

const (
	eventIdle      eventState = iota // never armed
	eventPending                     // armed; its current queue entry will fire
	eventCancelled                   // Cancel ran before it fired
	eventFired                       // popped for execution
)

// At reports the simulated time the event fires.
func (e *Event) At() time.Time { return e.at }

// Name reports the debug label given at scheduling time.
func (e *Event) Name() string { return e.name }

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired, was cancelled or was never armed is a no-op. Cancel
// reports whether the event was still pending.
//
// Cancelled events are deleted lazily: their entries stay queued until
// popped, or until the time bucket holding them is loaded, where they
// are dropped without a sift. Once cancelled entries outnumber live
// ones the engine compacts them away in one pass, so a workload that
// schedules and cancels millions of timers keeps the queue sized to its
// live events. A cancelled owner-held event may be armed again at once;
// its old entry stays dead.
func (e *Event) Cancel() bool {
	if e.state != eventPending {
		return false
	}
	e.state = eventCancelled
	e.eng.noteCancelled()
	return true
}

// heapEntry keeps the ordering key inline with the queue slice so the
// comparator never chases an *Event pointer: at fleet scale the queue
// holds tens of thousands of entries and every sift comparison on a
// []*Event layout is a cache miss into a scattered Event allocation.
// seq is the sequence number of the arming the entry was queued for; an
// event re-armed since then carries a newer one, which leaves the entry
// dead.
type heapEntry struct {
	atNs int64 // at.UnixNano(); simulated instants fit int64 nanoseconds
	seq  uint64
	ev   *Event
}

// live reports whether the entry will still fire: its event is pending
// under the arming the entry was queued for.
func (ent heapEntry) live() bool { return ent.ev.seq == ent.seq && ent.ev.state == eventPending }

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

// The near tier is a 4-ary heap: half the depth of a binary heap, and
// the four children of a node share cache lines. Heap shape never
// affects output — the comparator is a total order, so the pop sequence
// is the sorted sequence whatever the arity.

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

// heapify restores the heap invariant over the whole slice.
func (q eventQueue) heapify() {
	// (len-2)/4 is the last node with a child in a 4-ary heap; the
	// leaves below it are already valid sub-heaps.
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		q.siftDown(i)
	}
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
//
// The queue has two tiers. The near tier is a heap of the entries due
// before nearEnd; later entries are filed unsorted in the far tier's time
// buckets (see farTier). Every far entry is due at or after nearEnd, so
// the heap minimum is the global (time, seq) minimum; when the heap runs
// dry the next non-empty bucket is loaded into it and nearEnd moves past
// that bucket.
type Engine struct {
	now   time.Time
	queue eventQueue
	// nearEnd bounds the near tier; it is always a bucket boundary.
	nearEnd int64
	// far is allocated at the first push at or after nearEnd, so an
	// engine whose events all fall in its first bucket never pays for it.
	far     *farTier
	seq     uint64
	stopped bool
	fired   uint64
	// cancelled counts queued entries, in either tier, that can no longer
	// fire but have not been reaped yet; compaction keeps it at most half
	// the queued entries.
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
	e := &Engine{}
	e.Reset(start)
	return e
}

// Reset returns the engine to the state NewEngineAt(start) builds: the
// clock at start, nothing queued, no event fired, and sequence numbers
// counting from the start again. The queue keeps its storage, so a
// reused engine does not grow it a second time. Every event still
// pending is marked cancelled and never fires; its owner may arm it
// again on this engine. Any other engine state is caller-visible only
// through events, so a reset engine orders and fires events exactly as
// a fresh one.
func (e *Engine) Reset(start time.Time) {
	for _, ent := range e.queue {
		if ent.live() {
			ent.ev.state = eventCancelled
		}
	}
	clear(e.queue)
	e.queue = e.queue[:0]
	if e.far != nil {
		e.far.reset()
	}
	*e = Engine{now: start, queue: e.queue, nearEnd: (bucketOf(start.UnixNano()) + 1) << bucketShift, far: e.far}
}

// Now reports current simulated time.
func (e *Engine) Now() time.Time { return e.now }

// Since reports the simulated duration elapsed since t.
func (e *Engine) Since(t time.Time) time.Duration { return e.now.Sub(t) }

// queued reports the entries held in both tiers, dead ones included.
func (e *Engine) queued() int {
	n := len(e.queue)
	if e.far != nil {
		n += e.far.count
	}
	return n
}

// Pending reports the number of live events waiting in the queue.
// Cancelled-but-unreaped entries are excluded: they will never fire, so
// callers polling Pending for "is there work left" see only real work.
func (e *Engine) Pending() int { return e.queued() - e.cancelled }

// noteCancelled books one lazily-deleted event and compacts the queue
// once cancelled entries outnumber live ones.
func (e *Engine) noteCancelled() {
	e.cancelled++
	if n := e.queued(); n >= compactThreshold && e.cancelled*2 > n {
		e.compact()
	}
}

// compact removes every dead entry from both tiers in one pass and
// re-establishes the heap invariant. Pop order is unchanged: the heap
// comparator is a total order over (time, seq), so any valid heap of the
// same live events pops identically.
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, ent := range e.queue {
		if ent.live() {
			live = append(live, ent)
		}
	}
	// Zero the tail so dropped events are collectable.
	clear(e.queue[len(live):])
	e.queue = live
	e.queue.heapify()
	if e.far != nil {
		e.far.compact()
	}
	e.cancelled = 0
}

// push queues one entry in the tier its due time belongs to.
func (e *Engine) push(ent heapEntry) {
	if ent.atNs < e.nearEnd {
		e.queue = append(e.queue, ent)
		e.queue.siftUp(len(e.queue) - 1)
		return
	}
	if e.far == nil {
		e.far = newFarTier()
	}
	e.far.add(ent, bucketOf(e.nearEnd))
}

// peek returns the next event to fire, or nil when none is left. It
// drops dead entries at the top of the heap and refills the heap from
// the far tier when it runs dry.
func (e *Engine) peek() *Event {
	for {
		if len(e.queue) == 0 && !e.refill() {
			return nil
		}
		if top := e.queue[0]; top.live() {
			return top.ev
		}
		e.heapPop()
		e.cancelled--
	}
}

// refill loads the far tier's next non-empty bucket into the empty heap
// and reports whether the heap now holds an entry. Dead entries in the
// bucket are dropped there, without a sift.
func (e *Engine) refill() bool {
	f := e.far
	for f != nil && f.count > 0 {
		b := f.nextBucket(bucketOf(e.nearEnd))
		e.nearEnd = (b + 1) << bucketShift
		e.queue, e.cancelled = f.load(b, e.queue, e.cancelled)
		if len(e.queue) > 0 {
			e.queue.heapify()
			return true
		}
	}
	return false
}

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ScheduleAt registers fn to run at the absolute simulated instant t.
// Scheduling in the past is an error because it would reorder history.
func (e *Engine) ScheduleAt(t time.Time, name string, fn func()) (*Event, error) {
	if t.Before(e.now) {
		return nil, fmt.Errorf("simclock: schedule %q at %s before now %s", name, t, e.now)
	}
	ev := &Event{}
	e.arm(ev, t, name, fn)
	return ev, nil
}

// ScheduleAfter registers fn to run d after the current instant. Negative
// delays are clamped to zero.
func (e *Engine) ScheduleAfter(d time.Duration, name string, fn func()) *Event {
	ev := &Event{}
	e.ArmAfter(ev, d, name, fn)
	return ev
}

// ArmAfter arms the caller-owned event ev to run fn d after the current
// instant (negative delays are clamped to zero), exactly as ScheduleAfter
// would schedule a new event: it takes the next sequence number, so
// firing order is unchanged. ev must not be pending: it is new, has
// fired, or was cancelled. A cancelled event may still have an entry
// queued; that entry stays dead, because it carries the old sequence
// number. Arming a pending event panics.
func (e *Engine) ArmAfter(ev *Event, d time.Duration, name string, fn func()) {
	if d < 0 {
		d = 0
	}
	e.arm(ev, e.now.Add(d), name, fn)
}

// arm is the one arming path: every event, new or re-armed, is queued
// here with a fresh sequence number.
func (e *Engine) arm(ev *Event, at time.Time, name string, fn func()) {
	if ev.state == eventPending {
		panic(fmt.Sprintf("simclock: arming pending event %q", ev.name))
	}
	e.seq++
	ev.at, ev.seq, ev.fn, ev.state, ev.name, ev.eng = at, e.seq, fn, eventPending, name, e
	e.push(heapEntry{atNs: at.UnixNano(), seq: e.seq, ev: ev})
}

// Ticker repeatedly schedules fn every interval until the returned stop
// function is called. The first firing happens one interval from now.
type Ticker struct {
	stop bool
}

// Stop prevents future firings of the ticker.
func (t *Ticker) Stop() { t.stop = true }

// Every schedules fn to run every interval. fn receives the firing time.
// The ticker owns one Event for every firing: after fn returns, the
// event is re-armed at now+interval with the next sequence number — the
// number a fresh ScheduleAfter would take at the same moment — so firing
// order is unchanged and a warm tick allocates nothing.
func (e *Engine) Every(interval time.Duration, name string, fn func(now time.Time)) *Ticker {
	if interval <= 0 {
		interval = time.Nanosecond
	}
	t := &Ticker{}
	ev := &Event{}
	e.ArmAfter(ev, interval, name, func() {
		if t.stop {
			return
		}
		fn(e.now)
		if t.stop {
			return
		}
		e.ArmAfter(ev, interval, name, ev.fn)
	})
	return t
}

// Step executes the next pending event, advancing the clock to its due
// time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	next := e.peek()
	if next == nil {
		return false
	}
	e.heapPop()
	next.state = eventFired
	e.now = next.at
	e.fired++
	next.fn()
	return true
}

// Run executes events until the queue drains or the horizon passes.
// A zero horizon means run to drain. Run returns ErrStopped if Stop was
// called from inside an event.
func (e *Engine) Run(horizon time.Time) error {
	e.stopped = false
	for {
		if e.stopped {
			return ErrStopped
		}
		next := e.peek()
		if next == nil {
			break
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
