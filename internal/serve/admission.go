package serve

import (
	"sync"
	"time"
)

// Admission is the load controller in front of the worker slots. It
// bounds two things:
//
//   - queue depth: at most maxQueue admitted-but-unstarted requests,
//     so the queue (and its memory) has a hard cap;
//   - estimated wait: a request is shed when the projected queueing
//     delay for it — queued work divided by worker capacity — would
//     exceed maxWait. This sheds *before* saturation: once the queue
//     holds more work than can drain inside the latency budget, new
//     arrivals are refused with an honest Retry-After instead of
//     joining a queue they would time out in.
//
// Admission hands out Tickets; a ticket transitions queued → inflight
// when its request takes a worker slot and releases at completion, so
// the controller's picture of outstanding work matches the slots'.
// Close stops admission for good: AwaitIdle after Close therefore
// means no backend call is running and none can start.
type Admission struct {
	mu       sync.Mutex
	maxQueue int
	maxWait  time.Duration
	perUnit  time.Duration
	workers  int

	queued     int
	queuedCost float64
	inflight   int
	closed     bool

	admitted  uint64
	shedQueue uint64 // refused: queue depth at cap
	shedWait  uint64 // refused: projected wait over budget
	highWater int

	// notify wakes AwaitIdle whenever outstanding work decreases.
	notify chan struct{}
}

// NewAdmission builds a controller for the given number of workers,
// each serving one cost unit per perUnit of time.
func NewAdmission(maxQueue int, maxWait, perUnit time.Duration, workers int) *Admission {
	if workers < 1 {
		workers = 1
	}
	return &Admission{
		maxQueue: maxQueue,
		maxWait:  maxWait,
		perUnit:  perUnit,
		workers:  workers,
		notify:   make(chan struct{}, 1),
	}
}

// Ticket is one admitted request's reservation. Exactly one of
// Cancel (never started) or Start-then-Done must be called.
type Ticket struct {
	a       *Admission
	cost    float64
	started bool
	done    bool
}

// projectedWait is the estimated queueing delay if work joined now.
// Callers hold a.mu.
func (a *Admission) projectedWait(extra float64) time.Duration {
	return time.Duration((a.queuedCost + extra) / float64(a.workers) * float64(a.perUnit))
}

// Admit decides whether a request of the given cost may join the
// queue. On refusal it reports the projected time for enough queued
// work to drain — the Retry-After a well-behaved client should honor.
// After Close every request is refused (with no Retry-After).
func (a *Admission) Admit(cost float64) (t *Ticket, retryAfter time.Duration, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, 0, false
	}
	wait := a.projectedWait(cost)
	switch {
	case a.queued >= a.maxQueue:
		a.shedQueue++
	case wait > a.maxWait:
		a.shedWait++
	default:
		a.queued++
		a.queuedCost += cost
		a.admitted++
		if a.queued > a.highWater {
			a.highWater = a.queued
		}
		return &Ticket{a: a, cost: cost}, 0, true
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return nil, wait, false
}

// Start moves the ticket from queued to inflight (the request took a
// worker slot).
func (t *Ticket) Start() {
	if t == nil || t.started || t.done {
		return
	}
	t.started = true
	t.a.mu.Lock()
	t.a.queued--
	t.a.queuedCost -= t.cost
	t.a.inflight++
	t.a.mu.Unlock()
}

// Done releases an inflight ticket.
func (t *Ticket) Done() {
	if t == nil || t.done || !t.started {
		return
	}
	t.done = true
	t.a.mu.Lock()
	t.a.inflight--
	t.a.mu.Unlock()
	t.a.wake()
}

// Cancel releases a ticket that never took a worker slot (queue abort).
func (t *Ticket) Cancel() {
	if t == nil || t.done || t.started {
		return
	}
	t.done = true
	t.a.mu.Lock()
	t.a.queued--
	t.a.queuedCost -= t.cost
	t.a.mu.Unlock()
	t.a.wake()
}

func (a *Admission) wake() {
	select {
	case a.notify <- struct{}{}:
	default:
	}
}

// Close makes every later Admit refuse. Tickets already admitted are
// unaffected and still count toward Outstanding.
func (a *Admission) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
}

// Outstanding reports queued plus inflight requests.
func (a *Admission) Outstanding() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued + a.inflight
}

// AwaitIdle blocks until no work is queued or inflight, or done is
// closed/cancelled; it reports whether idle was reached.
func (a *Admission) AwaitIdle(done <-chan struct{}) bool {
	for {
		if a.Outstanding() == 0 {
			return true
		}
		select {
		case <-done:
			return a.Outstanding() == 0
		case <-a.notify:
		}
	}
}

// Stats reports admission counters: requests admitted, sheds by cause,
// and the queue-depth high-water mark (never above the configured cap).
func (a *Admission) Stats() (admitted, shedQueue, shedWait uint64, highWater int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted, a.shedQueue, a.shedWait, a.highWater
}
