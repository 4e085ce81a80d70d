package simclock

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spotverse/internal/raceflag"
)

// The differential queue test drives the engine with random schedule,
// cancel, re-arm, ticker, Step and Run sequences and checks every step
// against a reference model: a plain slice of pending entries kept
// sorted by (at, seq), latest first, so the next entry is the last one
// and near-future inserts move little memory. Any change to how the engine stores its queue
// must leave the fired (name, at) order, Pending, Fired and Now
// identical to the reference.

// bucketWidthNs is a round power-of-two span of simulated time (~73
// min); instants on its multiples exercise same-instant ties where a
// time-bucketed queue changes tier.
const bucketWidthNs = int64(1) << 42

type fireRec struct {
	name string
	atNs int64
}

// handle is one schedulable thing of the harness: a one-shot event, an
// owner-held event the harness re-arms, or a ticker.
type handle struct {
	kind    handleKind
	name    string
	ev      *Event
	fn      func()
	tk      *Ticker
	every   time.Duration
	pending bool // reference: an entry of this handle is pending
	refAtNs int64
	refSeq  uint64
	stopped bool // tickers
}

type handleKind int

const (
	oneShot handleKind = iota
	owned
	ticker
)

type refEntry struct {
	atNs int64
	seq  uint64
	h    *handle
}

type queueHarness struct {
	t   *testing.T
	rng *rand.Rand
	eng *Engine
	got []fireRec

	// reference model
	now     int64
	seq     uint64
	pending []refEntry
	fired   uint64
	want    []fireRec
	handles []*handle

	// resets enables the reset operation.
	resets bool
}

func newQueueHarness(t *testing.T, seed int64) *queueHarness {
	return &queueHarness{t: t, rng: rand.New(rand.NewSource(seed)), eng: NewEngine(), now: Epoch.UnixNano()}
}

func (q *queueHarness) record(name string) func() {
	return func() { q.got = append(q.got, fireRec{name: name, atNs: q.eng.Now().UnixNano()}) }
}

// cmpRef orders reference entries latest first.
func cmpRef(e refEntry, key refEntry) int {
	if e.atNs != key.atNs {
		return cmp.Compare(key.atNs, e.atNs)
	}
	return cmp.Compare(key.seq, e.seq)
}

func (q *queueHarness) refPush(h *handle, atNs int64) {
	q.seq++
	h.pending, h.refAtNs, h.refSeq = true, atNs, q.seq
	e := refEntry{atNs: atNs, seq: q.seq, h: h}
	i, _ := slices.BinarySearchFunc(q.pending, e, cmpRef)
	q.pending = slices.Insert(q.pending, i, e)
}

// refStep fires the reference's next entry, as Step does.
func (q *queueHarness) refStep() bool {
	if len(q.pending) == 0 {
		return false
	}
	e := q.pending[len(q.pending)-1]
	q.pending = q.pending[:len(q.pending)-1]
	e.h.pending = false
	q.now = e.atNs
	q.fired++
	if e.h.kind == ticker {
		if e.h.stopped {
			return true
		}
		q.want = append(q.want, fireRec{name: e.h.name, atNs: e.atNs})
		q.refPush(e.h, e.atNs+int64(e.h.every))
		return true
	}
	q.want = append(q.want, fireRec{name: e.h.name, atNs: e.atNs})
	return true
}

func (q *queueHarness) refCancel(h *handle) bool {
	if !h.pending {
		return false
	}
	i, ok := slices.BinarySearchFunc(q.pending, refEntry{atNs: h.refAtNs, seq: h.refSeq}, cmpRef)
	if !ok {
		q.t.Fatalf("reference lost the entry of %s", h.name)
	}
	q.pending = slices.Delete(q.pending, i, i+1)
	h.pending = false
	return true
}

// delay draws how far ahead the next event lands: now, minutes, days,
// a bucket-aligned instant, beyond a year, or exactly on an instant
// that already has a pending entry.
func (q *queueHarness) delay() time.Duration {
	switch r := q.rng.Intn(12); {
	case r == 0:
		return 0
	case r < 4:
		return time.Duration(q.rng.Int63n(int64(20 * time.Minute)))
	case r < 7:
		return time.Duration(q.rng.Int63n(int64(4 * 24 * time.Hour)))
	case r < 9:
		aligned := (q.now/bucketWidthNs + 1 + q.rng.Int63n(600)) * bucketWidthNs
		return time.Duration(aligned - q.now)
	case r == 9:
		return time.Duration(365*24*time.Hour) + time.Duration(q.rng.Int63n(int64(400*24*time.Hour)))
	default:
		if len(q.pending) == 0 {
			return time.Hour
		}
		return time.Duration(q.pending[q.rng.Intn(len(q.pending))].atNs - q.now)
	}
}

func (q *queueHarness) scheduleOneShot() {
	h := &handle{kind: oneShot, name: fmt.Sprintf("once-%d", len(q.handles))}
	q.handles = append(q.handles, h)
	d := q.delay()
	h.ev = q.eng.ScheduleAfter(d, h.name, q.record(h.name))
	q.refPush(h, q.now+int64(d))
}

// rearmOwned arms an owner-held handle that is not pending, re-using
// its one Event whether it last fired or was cancelled with its entry
// still queued.
func (q *queueHarness) rearmOwned(h *handle) {
	d := q.delay()
	if h.ev == nil {
		h.ev = &Event{}
	}
	q.eng.ArmAfter(h.ev, d, h.name, h.fn)
	q.refPush(h, q.now+int64(d))
}

func (q *queueHarness) newOwned() {
	h := &handle{kind: owned, name: fmt.Sprintf("owned-%d", len(q.handles))}
	h.fn = q.record(h.name)
	q.handles = append(q.handles, h)
	q.rearmOwned(h)
}

func (q *queueHarness) startTicker() {
	every := []time.Duration{15 * time.Minute, time.Duration(bucketWidthNs), 7 * 24 * time.Hour, 400 * 24 * time.Hour}[q.rng.Intn(4)]
	h := &handle{kind: ticker, name: fmt.Sprintf("tick-%d", len(q.handles)), every: every}
	q.handles = append(q.handles, h)
	name := h.name
	h.tk = q.eng.Every(every, name, func(now time.Time) {
		q.got = append(q.got, fireRec{name: name, atNs: now.UnixNano()})
	})
	q.refPush(h, q.now+int64(every))
}

func (q *queueHarness) cancel(h *handle) {
	if h.kind == ticker {
		h.tk.Stop()
		h.stopped = true
		return
	}
	if h.ev == nil {
		return
	}
	if got, want := h.ev.Cancel(), q.refCancel(h); got != want {
		q.t.Fatalf("Cancel(%s) = %v, reference %v", h.name, got, want)
	}
}

func (q *queueHarness) runTo(horizonNs int64) {
	if err := q.eng.Run(time.Unix(0, horizonNs).UTC()); err != nil {
		q.t.Fatalf("Run: %v", err)
	}
	for len(q.pending) > 0 && q.pending[len(q.pending)-1].atNs <= horizonNs {
		q.refStep()
	}
	q.now = max(q.now, horizonNs)
}

// check compares the engine against the reference after one operation
// and clears the fired records it compared.
func (q *queueHarness) check(op string) {
	q.t.Helper()
	if !slices.Equal(q.got, q.want) {
		q.t.Fatalf("after %s: fired %d events, reference %d; first difference %s",
			op, len(q.got), len(q.want), firstDiff(q.got, q.want))
	}
	q.got, q.want = q.got[:0], q.want[:0]
	if got, want := q.eng.Pending(), len(q.pending); got != want {
		q.t.Fatalf("after %s: Pending = %d, reference %d", op, got, want)
	}
	if got := q.eng.Fired(); got != q.fired {
		q.t.Fatalf("after %s: Fired = %d, reference %d", op, got, q.fired)
	}
	if got := q.eng.Now().UnixNano(); got != q.now {
		q.t.Fatalf("after %s: Now = %d, reference %d", op, got, q.now)
	}
}

func firstDiff(a, b []fireRec) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("at %d: %v vs %v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("at %d (length)", min(len(a), len(b)))
}

func (q *queueHarness) pick(kind handleKind) *handle {
	var hs []*handle
	for _, h := range q.handles {
		if h.kind == kind {
			hs = append(hs, h)
		}
	}
	if len(hs) == 0 {
		return nil
	}
	return hs[q.rng.Intn(len(hs))]
}

func (q *queueHarness) liveTickers() int {
	n := 0
	for _, h := range q.handles {
		if h.kind == ticker && !h.stopped {
			n++
		}
	}
	return n
}

// reset resets the engine to Epoch. Every queued entry is dropped: its
// handle is no longer pending, owned events may be re-armed, and
// tickers never fire again.
func (q *queueHarness) reset() {
	q.eng.Reset(Epoch)
	for _, h := range q.handles {
		h.pending = false
		if h.kind == ticker {
			h.stopped = true
		}
	}
	q.now, q.seq, q.fired, q.pending = Epoch.UnixNano(), 0, 0, q.pending[:0]
}

func (q *queueHarness) op() string {
	if q.resets && q.rng.Intn(150) == 0 {
		q.reset()
		return "reset"
	}
	switch r := q.rng.Intn(100); {
	case r < 28:
		q.scheduleOneShot()
		return "schedule"
	case r < 36:
		q.newOwned()
		return "new owned"
	case r < 46:
		if h := q.pick(owned); h != nil && !h.pending {
			q.rearmOwned(h)
		}
		return "re-arm"
	case r < 60:
		if len(q.handles) > 0 {
			q.cancel(q.handles[q.rng.Intn(len(q.handles))])
		}
		return "cancel"
	case r < 86:
		if got, want := q.eng.Step(), q.refStep(); got != want {
			q.t.Fatalf("Step = %v, reference %v", got, want)
		}
		return "step"
	case r < 94:
		d := q.delay()
		if q.rng.Intn(4) == 0 {
			d = time.Duration(q.rng.Int63n(int64(30 * 24 * time.Hour)))
		}
		q.runTo(q.now + int64(d))
		return "run"
	case r < 96:
		if h := q.pick(ticker); h != nil && !h.stopped && (q.liveTickers() >= 3 || q.rng.Intn(2) == 0) {
			q.cancel(h)
			return "stop ticker"
		}
		if q.liveTickers() < 3 {
			q.startTicker()
		}
		return "start ticker"
	case r < 98:
		// A burst of far events, so both tiers hold enough entries for
		// compaction to run.
		for range 100 + q.rng.Intn(200) {
			q.scheduleOneShot()
		}
		return "burst"
	default:
		// Cancel about two thirds of everything: compaction runs with
		// cancelled entries wherever they are queued.
		for _, h := range q.handles {
			if h.kind != ticker && q.rng.Intn(3) != 0 {
				q.cancel(h)
			}
		}
		return "mass cancel"
	}
}

// TestQueueMatchesReference runs the random operation sequences.
func TestQueueMatchesReference(t *testing.T) { runQueueReference(t, false) }

// TestQueueResetMatchesReference runs them with engine resets mixed in:
// after a reset the engine must behave as a fresh one, while the
// harness goes on re-arming the owned events that were pending when it
// ran.
func TestQueueResetMatchesReference(t *testing.T) { runQueueReference(t, true) }

func runQueueReference(t *testing.T, resets bool) {
	seeds, ops := 24, 3000
	if testing.Short() || raceflag.Enabled {
		seeds = 6 // the race detector slows the reference scan tenfold
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		q := newQueueHarness(t, seed)
		q.resets = resets
		for i := 0; i < ops; i++ {
			op := q.op()
			q.check(fmt.Sprintf("op %d (%s), seed %d", i, op, seed))
		}
		// Drain: every remaining entry fires in reference order.
		for _, h := range q.handles {
			if h.kind == ticker {
				q.cancel(h)
			}
		}
		q.runTo(q.now + int64(800*24*time.Hour))
		q.check(fmt.Sprintf("drain, seed %d", seed))
		if q.eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after drain", seed, q.eng.Pending())
		}
	}
}

// TestQueueRunHorizonOverFarEvents covers Run with only far-future
// events queued: nothing is due before the horizon, so Run moves the
// clock to the horizon and fires nothing; a later Run fires them all in
// (at, seq) order, including events more than a year out.
func TestQueueRunHorizonOverFarEvents(t *testing.T) {
	q := newQueueHarness(t, 99)
	for _, d := range []time.Duration{3 * 24 * time.Hour, 30 * 24 * time.Hour, 400 * 24 * time.Hour, 3 * 24 * time.Hour, 2 * 24 * time.Hour} {
		h := &handle{kind: oneShot, name: fmt.Sprintf("far-%d", len(q.handles))}
		q.handles = append(q.handles, h)
		h.ev = q.eng.ScheduleAfter(d, h.name, q.record(h.name))
		q.refPush(h, q.now+int64(d))
	}
	q.check("schedule")
	q.runTo(q.now + int64(24*time.Hour))
	if len(q.got) != 0 {
		t.Fatalf("fired %v before any event was due", q.got)
	}
	q.check("run 1 day")
	q.runTo(q.now + int64(500*24*time.Hour))
	if len(q.got) != 5 {
		t.Fatalf("fired %d events, want 5", len(q.got))
	}
	q.check("run 500 days")
}

// resetScript arms the owned events and a mix of one-shots and a
// ticker on both tiers and at shared instants, runs part of the way,
// cancels some events and re-arms others, then drains. It records the
// (name, at) sequence and the engine's counters.
func resetScript(e *Engine, owned []*Event, steps int) []fireRec {
	var got []fireRec
	rec := func(name string) func() {
		return func() { got = append(got, fireRec{name: name, atNs: e.Now().UnixNano()}) }
	}
	for i, ev := range owned {
		d := time.Duration(i%4) * time.Duration(bucketWidthNs) * time.Duration(1+i/4)
		e.ArmAfter(ev, d, fmt.Sprintf("owned-%d", i), rec(fmt.Sprintf("owned-%d", i)))
	}
	for i := range 20 {
		name := fmt.Sprintf("once-%d", i)
		e.ScheduleAfter(time.Duration(i*i)*37*time.Minute, name, rec(name))
	}
	tk := e.Every(15*time.Minute, "tick", func(now time.Time) { got = append(got, fireRec{name: "tick", atNs: now.UnixNano()}) })
	for range steps {
		e.Step()
	}
	for i, ev := range owned {
		if i%3 == 0 && ev.Cancel() {
			e.ArmAfter(ev, time.Duration(i)*time.Hour, fmt.Sprintf("rearmed-%d", i), rec(fmt.Sprintf("rearmed-%d", i)))
		}
	}
	e.RunFor(9 * time.Hour)
	tk.Stop()
	for e.Step() {
	}
	got = append(got, fireRec{name: fmt.Sprintf("fired %d pending %d", e.Fired(), e.Pending()), atNs: e.Now().UnixNano()})
	return got
}

// TestResetEngineMatchesFresh checks that a reset engine is a fresh
// one. The prior run leaves owned events, one-shots and a ticker
// pending in both tiers, plus dead entries of cancelled events; after
// the reset the same owned events are armed again by a script that must
// fire the (name, at) sequence the script fires on a fresh engine.
func TestResetEngineMatchesFresh(t *testing.T) {
	newOwned := func() []*Event {
		evs := make([]*Event, 12)
		for i := range evs {
			evs[i] = &Event{}
		}
		return evs
	}
	want := resetScript(NewEngine(), newOwned(), 25)

	e := NewEngineAt(Epoch.Add(-40 * time.Hour))
	owned := newOwned()
	for i, ev := range owned {
		e.ArmAfter(ev, time.Duration(i)*time.Duration(bucketWidthNs)/3, "prior", func() {})
	}
	for i := range 100 {
		ev := e.ScheduleAfter(time.Duration(i)*time.Hour, "prior-once", func() {})
		if i%2 == 0 {
			ev.Cancel()
		}
	}
	e.Every(10*time.Minute, "prior-tick", func(time.Time) {})
	for range 30 {
		e.Step()
	}
	if owned[len(owned)-1].Cancel() {
		e.ArmAfter(owned[len(owned)-1], 400*24*time.Hour, "prior-far", func() {})
	}
	e.Reset(Epoch)
	if e.Pending() != 0 || e.Fired() != 0 || !e.Now().Equal(Epoch) {
		t.Fatalf("reset engine: pending %d, fired %d, now %v", e.Pending(), e.Fired(), e.Now())
	}
	if got := resetScript(e, owned, 25); !slices.Equal(got, want) {
		t.Fatalf("reset engine fired %d records, fresh %d; first difference %s", len(got), len(want), firstDiff(got, want))
	}
}
