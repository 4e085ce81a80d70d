package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/services/eventbridge"
	"spotverse/internal/services/lambda"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

// Controller is SpotVerse's actuation component. Interruption handling
// follows the paper's AWS wiring: the interruption warning is published
// to EventBridge, a rule routes it into a Step Functions execution that
// retries the interruption-handler Lambda, and the handler asks the
// Optimizer for a migration target and re-provisions the workload. A
// CloudWatch rule sweeps open spot requests every 15 minutes.
//
// The Controller is hardened against a faulty control plane: every
// interruption is recorded in a pending-migration registry before the
// (droppable) EventBridge publish, so the sweep can recover migrations
// whose notice was lost or whose handler chain exhausted its retries;
// retry timing uses jittered exponential backoff; and per-(service,
// region) circuit breakers defer executions while a dependency is
// browned out rather than burning attempts into it.
//
// With Config.Journal set it is additionally hardened against its own
// death: every pending-migration transition is write-ahead journaled to
// DynamoDB before the in-memory mutation, relaunches commit through a
// conditional write (exactly-once across restarts), and CrashRestart
// rebuilds the registry and breakers by replaying the journal and
// rescanning the provider.
type Controller struct {
	cfg  Config
	deps Deps
	opt  *Optimizer
	rng  *simclock.RNG

	handled  int
	failures int
	sweeps   int

	pending      map[string]*pendingMigration
	breakers     map[string]*breaker
	recoveries   int
	breakerSkips int

	jrnl     *journal
	lease    *lease
	resolver func(id string) strategy.RelaunchFunc

	// id names this incarnation as the lease holder and prefixes its
	// breaker-observer keys: DefaultControllerID for the primary, a
	// distinct ID per rival.
	id string
	// fn is this incarnation's handler Lambda name; rival incarnations
	// namespace it (Lambda rejects duplicate registrations).
	fn string
	// rival marks a split-brain incarnation: it adopts interruption
	// events into its own pending copies instead of sharing the
	// primary's, and never re-records entries the primary journaled.
	rival bool
	// stopped gates every entry point once the incarnation is shut down;
	// CloudWatch has no per-schedule stop, so the sweep checks it too.
	stopped bool

	restarts    int
	replayed    int
	killDropped int
	restartAt   time.Time
	recoverySet map[string]bool
	recoveryDur time.Duration
}

const (
	handlerFunction = "spotverse-interruption-handler"
	// SweepInterval is the paper's periodic open-request check; the
	// hardened Controller piggybacks its pending-migration recovery pass
	// on the same rule.
	SweepInterval = 15 * time.Minute
	// maxRetryDelay caps the exponential recovery backoff.
	maxRetryDelay = time.Hour
)

// pendingMigration is one interrupted workload awaiting re-provisioning.
// It is recorded before the EventBridge publish — ground truth that
// survives a dropped delivery — and doubles as the event payload.
type pendingMigration struct {
	id       string
	region   catalog.Region
	relaunch strategy.RelaunchFunc
	since    time.Time
	attempts int
	nextTry  time.Time
	inflight bool
	done     bool
}

// newController deploys one Controller incarnation named id. A rival
// (any id but DefaultControllerID) namespaces its AWS-side resources
// (handler Lambda, EventBridge rule, sweep schedule) with "-<id>" so it
// can coexist with the primary, which keeps the exact historical names.
func newController(cfg Config, deps Deps, opt *Optimizer, id string) (*Controller, error) {
	rival := id != DefaultControllerID
	suffix := ""
	if rival {
		suffix = "-" + id
	}
	c := &Controller{
		cfg:      cfg,
		deps:     deps,
		opt:      opt,
		rng:      simclock.Stream(cfg.Seed, "spotverse/controller"+suffix),
		pending:  make(map[string]*pendingMigration),
		breakers: make(map[string]*breaker),
		id:       id,
		fn:       handlerFunction + suffix,
		rival:    rival,
	}
	if cfg.Journal {
		jr, err := newJournal(cfg, deps)
		if err != nil {
			return nil, fmt.Errorf("controller: %w", err)
		}
		c.jrnl = jr
		if cfg.Lease {
			c.lease = newLease(c.id, deps)
			jr.fence = c.lease
		}
	}
	_, err := deps.Lambda.Register(c.fn, 128, 15*time.Minute, 2*time.Second,
		func(raw any) error {
			p, ok := raw.(*pendingMigration)
			if !ok {
				return fmt.Errorf("controller: bad payload %T", raw)
			}
			if p.done || c.stopped {
				return nil
			}
			placement, err := opt.Replace(p.region)
			if err != nil {
				return fmt.Errorf("controller handle %s: %w", p.id, err)
			}
			c.complete(p, placement)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if err := deps.Bus.AddRule("spotverse-interruption"+suffix, EventSourceEC2, DetailTypeInterruption,
		func(ev eventbridge.Event) {
			p, ok := ev.Detail.(*pendingMigration)
			if !ok || c.stopped {
				return
			}
			if c.rival {
				// The payload is the publishing incarnation's registry
				// entry; a rival adopts a private copy so the two
				// incarnations genuinely race on the journal, not on
				// shared memory.
				p = c.adopt(p)
			}
			c.execute(p)
		}); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	if err := deps.CloudWatch.Schedule("open-request-sweep"+suffix, SweepInterval, func(now time.Time) {
		if c.stopped {
			return
		}
		c.sweeps++
		if c.lease != nil {
			// Keep the lease warm on the sweep cadence; failure is fine —
			// commits re-check, and a later sweep re-acquires.
			c.lease.ensure(now)
		}
		deps.Provider.EvaluateOpenRequests()
		c.recoverPending(now)
	}); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	return c, nil
}

// adopt registers a private copy of another incarnation's pending
// migration under this (rival) incarnation, refreshing an existing copy
// in place. The journal entry already exists — the publisher recorded
// it — so no journal write happens here.
func (c *Controller) adopt(p *pendingMigration) *pendingMigration {
	if mine, ok := c.pending[p.id]; ok && !mine.done {
		mine.region = p.region
		mine.relaunch = p.relaunch
		mine.since = p.since
		return mine
	}
	cp := &pendingMigration{id: p.id, region: p.region, relaunch: p.relaunch, since: p.since}
	c.pending[cp.id] = cp
	return cp
}

// Stop retires this incarnation: handlers, sweeps, and executions
// become no-ops. The lease (if held) is not released — a real deposed
// controller dies without cleanup; expiry hands the token over.
func (c *Controller) Stop() { c.stopped = true }

// complete finishes a migration exactly once: later duplicate executions
// (a sweep retry racing a slow handler) find done set and no-op, so the
// workload is never relaunched twice for one interruption. With the
// journal on, the in-memory flag is backed by a conditional write, so
// the guarantee also holds across crash-restarts — an execution started
// by a dead incarnation and the replayed entry of the live one race for
// the same journal condition, and exactly one wins.
func (c *Controller) complete(p *pendingMigration, placement strategy.Placement) {
	if p.done {
		return
	}
	if c.jrnl != nil {
		switch c.jrnl.markDone(p) {
		case commitSkip:
			// Another incarnation already relaunched this migration: close
			// it locally without actuating.
			p.done = true
			delete(c.pending, p.id)
			c.noteRecovered(p.id)
			return
		case commitDefer:
			// Fenced out or journal unreachable: leave the entry pending so
			// a later sweep retries once the lease or journal heals.
			return
		}
	}
	p.done = true
	delete(c.pending, p.id)
	c.handled++
	p.relaunch(placement)
	c.noteRecovered(p.id)
}

// noteRecovered tracks crash-recovery latency: once every migration
// replayed at the last restart has resolved, the elapsed sim time since
// the restart is added to the recovery total.
func (c *Controller) noteRecovered(id string) {
	if c.recoverySet == nil || !c.recoverySet[id] {
		return
	}
	delete(c.recoverySet, id)
	if len(c.recoverySet) == 0 {
		c.recoverySet = nil
		c.recoveryDur += c.deps.Engine.Now().Sub(c.restartAt)
	}
}

// execute wraps the handler Lambda in a retrying Step Functions run. It
// reports whether an execution was actually started (breakers or an
// already-inflight attempt may defer it).
func (c *Controller) execute(p *pendingMigration) bool {
	if p.done || p.inflight {
		return false
	}
	if p.relaunch == nil {
		// A journal-replayed entry whose relaunch closure has not been
		// reattached yet: nothing to actuate until the resolver can
		// supply one (a later sweep retries).
		if c.resolver != nil {
			p.relaunch = c.resolver(p.id)
		}
		if p.relaunch == nil {
			return false
		}
	}
	if !c.cfg.DisableBreakers && c.anyBreakerOpen(c.deps.Engine.Now()) {
		c.breakerSkips++
		return false
	}
	p.inflight = true
	p.attempts++
	err := c.deps.StepFn.ExecuteAsync("interruption-"+p.id,
		func(finish func(error)) {
			err := c.deps.Lambda.Invoke(c.fn, p, func(res lambda.Result) {
				finish(res.Err)
			})
			if err != nil {
				finish(err)
			}
		},
		func(final error) {
			c.finish(p, final)
		})
	if err != nil {
		// The state machine itself refused the execution (an injected
		// Step Functions fault): no attempt ran, no callback will fire.
		c.finish(p, err)
		return false
	}
	return true
}

// finish records the outcome of one Step Functions execution.
func (c *Controller) finish(p *pendingMigration, final error) {
	p.inflight = false
	if final == nil {
		c.noteSuccess()
		return
	}
	c.failures++
	now := c.deps.Engine.Now()
	c.noteFailure(final, now)
	p.nextTry = now.Add(c.retryDelay(p.attempts))
	if c.jrnl != nil {
		c.jrnl.update(p, journalFailed)
	}
}

// retryDelay is jittered exponential backoff over the sweep's recovery
// base: RecoveryAfter doubled per attempt, capped at maxRetryDelay, with
// equal jitter (half deterministic, half uniform) to desynchronise the
// retry herd after a regional brownout lifts.
func (c *Controller) retryDelay(attempts int) time.Duration {
	d := c.cfg.RecoveryAfter
	for i := 1; i < attempts && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay {
		d = maxRetryDelay
	}
	return d/2 + time.Duration(c.rng.Float64()*float64(d/2))
}

// breakerKey attributes a failure to the faulted (service, region) when
// the error chain carries a typed chaos fault, and to the control plane
// at large otherwise.
func breakerKey(err error) string {
	var ce *chaos.Error
	if errors.As(err, &ce) {
		region := string(ce.Region)
		if region == "" {
			region = "global"
		}
		return ce.Service + "@" + region
	}
	return "control-plane@global"
}

func (c *Controller) noteFailure(err error, now time.Time) {
	key := breakerKey(err)
	b, ok := c.breakers[key]
	if !ok {
		b = newBreaker(c.cfg.BreakerFailures, c.cfg.BreakerCooldown)
		c.breakers[key] = b
	}
	before, trips := b.state, b.trips
	b.failure(now)
	c.observeBreaker(key, before, trips, b)
	if c.jrnl != nil {
		c.jrnl.snapshotBreaker(key, b)
	}
}

func (c *Controller) noteSuccess() {
	for _, key := range c.breakerKeys() {
		b := c.breakers[key]
		dirty := b.state != breakerClosed || b.consecutive != 0
		before, trips := b.state, b.trips
		b.success()
		c.observeBreaker(key, before, trips, b)
		if dirty && c.jrnl != nil {
			c.jrnl.snapshotBreaker(key, b)
		}
	}
}

// anyBreakerOpen polls every breaker (never short-circuiting, so the
// open→half-open transitions are independent of map order).
func (c *Controller) anyBreakerOpen(now time.Time) bool {
	open := false
	for _, key := range c.breakerKeys() {
		b := c.breakers[key]
		before, trips := b.state, b.trips
		if !b.allow(now) {
			open = true
		}
		c.observeBreaker(key, before, trips, b)
	}
	return open
}

// breakerKeys returns the breaker registry's keys in sorted order, so
// every observer callback sequence is deterministic. The breaker logic
// itself is order-independent (no short-circuits), so sorting changes
// nothing behaviourally.
func (c *Controller) breakerKeys() []string {
	keys := make([]string, 0, len(c.breakers))
	for key := range c.breakers {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

func breakerStateName(s breakerState) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// observeBreaker feeds the configured BreakerObserver with one breaker
// transition, suppressing no-op polls (state and trip count unchanged).
// The key is prefixed with this incarnation's ID so a
// split-brain rival's independent breaker counters never interleave
// with the primary's under one key.
func (c *Controller) observeBreaker(key string, before breakerState, beforeTrips int, b *breaker) {
	if c.cfg.BreakerObserver == nil || (b.state == before && b.trips == beforeTrips) {
		return
	}
	c.cfg.BreakerObserver(c.id+"/"+key, breakerStateName(before), breakerStateName(b.state), b.trips)
}

// recoverPending is the notice-loss recovery pass: any migration still
// pending after RecoveryAfter — its EventBridge delivery dropped, its
// retries exhausted, or its executions deferred by a breaker — is
// re-executed, subject to its backoff deadline.
func (c *Controller) recoverPending(now time.Time) {
	if c.cfg.DisableRecovery || len(c.pending) == 0 {
		return
	}
	ids := make([]string, 0, len(c.pending))
	for id := range c.pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := c.pending[id]
		if p.done {
			delete(c.pending, id)
			continue
		}
		if p.inflight || now.Sub(p.since) < c.cfg.RecoveryAfter || now.Before(p.nextTry) {
			continue
		}
		if c.execute(p) {
			c.recoveries++
		}
	}
}

// HandleInterruption records the pending migration, then publishes the
// interruption warning onto the bus, which triggers the full EventBridge
// → Step Functions → Lambda chain. The registry write happens first so a
// dropped delivery leaves the sweep something to recover.
func (c *Controller) HandleInterruption(id string, current catalog.Region, relaunch strategy.RelaunchFunc) error {
	if relaunch == nil {
		return fmt.Errorf("controller: nil relaunch for %s", id)
	}
	now := c.deps.Engine.Now()
	p, ok := c.pending[id]
	if !ok || p.done {
		p = &pendingMigration{id: id, region: current, relaunch: relaunch, since: now}
		if c.jrnl != nil {
			c.jrnl.record(p)
		}
		c.pending[id] = p
	} else {
		// Re-interruption while still pending: refresh the source region
		// and relaunch closure, keep the attempt history. The journal sees
		// the refreshed record before memory does (write-ahead order).
		next := *p
		next.region = current
		next.relaunch = relaunch
		next.since = now
		if c.jrnl != nil {
			c.jrnl.record(&next)
		}
		*p = next
	}
	c.deps.Bus.Put(eventbridge.Event{
		Source:     EventSourceEC2,
		DetailType: DetailTypeInterruption,
		Detail:     p,
	})
	if c.jrnl != nil {
		c.jrnl.update(p, journalPublished)
	}
	return nil
}

// SetRelaunchResolver installs the factory that rebuilds relaunch
// closures for journal-replayed migrations (closures cannot be
// persisted; the workload driver knows how to reconstruct them).
func (c *Controller) SetRelaunchResolver(fn func(id string) strategy.RelaunchFunc) {
	c.resolver = fn
}

// CrashRestart models the Controller process dying and cold-starting:
// the in-memory pending registry and breakers are lost (the AWS-side
// actors — Lambda registrations, EventBridge rules, the CloudWatch
// sweep, in-flight Step Functions executions — survive, as they do in
// production). With the journal on, the new incarnation replays every
// open entry, reattaches relaunch closures through the resolver, and
// rescans the provider so an entry whose relaunch happened but whose
// commit write was lost is closed instead of re-executed. Without the
// journal the pending migrations are simply gone.
func (c *Controller) CrashRestart() {
	now := c.deps.Engine.Now()
	c.restarts++
	if c.cfg.BreakerObserver != nil {
		// Restart marker: the breaker registry is about to be replaced
		// (possibly with older journal snapshots whose trip counts are
		// lower), so downstream per-key sequence checks must reset this
		// incarnation's per-key sequences here.
		c.cfg.BreakerObserver(c.id+"/", "restart", "restart", c.restarts)
	}
	lost := len(c.pending)
	c.pending = make(map[string]*pendingMigration)
	c.breakers = make(map[string]*breaker)
	if c.jrnl == nil {
		c.killDropped += lost
		return
	}
	pend, brks := c.jrnl.replay()
	relaunchedAfter := make(map[string]time.Time)
	for _, inst := range c.deps.Provider.RunningInstances() {
		if inst.Tag != "" {
			relaunchedAfter[inst.Tag] = inst.LaunchedAt
		}
	}
	for _, req := range c.deps.Provider.OpenRequests() {
		if req.Tag != "" {
			relaunchedAfter[req.Tag] = req.Created
		}
	}
	replayedNow := 0
	for id, p := range pend {
		// A running instance or open request created after the entry's
		// interruption instant means the dead incarnation's relaunch did
		// land; close the entry instead of migrating the workload twice.
		if at, ok := relaunchedAfter[id]; ok && at.After(p.since) {
			c.jrnl.update(p, journalRelaunched)
			continue
		}
		if c.resolver != nil {
			p.relaunch = c.resolver(id)
		}
		c.pending[id] = p
		replayedNow++
	}
	c.breakers = brks
	c.replayed += replayedNow
	if lost > replayedNow {
		c.killDropped += lost - replayedNow
	}
	if replayedNow > 0 {
		// If a previous recovery window is still open, fold it in at the
		// restart instant before starting the new one.
		if c.recoverySet != nil {
			c.recoveryDur += now.Sub(c.restartAt)
		}
		c.restartAt = now
		c.recoverySet = make(map[string]bool, replayedNow)
		for id := range c.pending {
			c.recoverySet[id] = true
		}
	}
}

// RecoveryStats reports crash-restart counters: restarts survived,
// journal entries replayed into the new incarnation, pending migrations
// dropped on a kill (nothing journaled to replay), relaunches refused
// by the journal's exactly-once commit, journal writes lost to faults,
// and total sim time the replayed migrations took to re-resolve.
func (c *Controller) RecoveryStats() (restarts, replayed, dropped, refused, journalLost int, recovery time.Duration) {
	refusedN, lostN := 0, 0
	if c.jrnl != nil {
		refusedN, lostN = c.jrnl.skips, c.jrnl.lost
	}
	return c.restarts, c.replayed, c.killDropped, refusedN, lostN, c.recoveryDur
}

// LeaseStats reports the fencing lease's counters: fresh acquisitions,
// renewals, expired-lease takeovers, commits refused by the fencing
// gate, lease operations abandoned to injected faults, and relaunch
// commits deferred back to the sweep. All zero when Config.Lease is off.
func (c *Controller) LeaseStats() (acquires, renewals, takeovers, fenced, lost, deferrals int) {
	if c.lease == nil {
		return 0, 0, 0, 0, 0, 0
	}
	return c.lease.acquires, c.lease.renewals, c.lease.takeovers,
		c.lease.fenced, c.lease.lost, c.jrnl.deferrals
}

// Stats reports controller counters: handled interruptions, exhausted
// retries, and sweep executions.
func (c *Controller) Stats() (handled, failures, sweeps int) {
	return c.handled, c.failures, c.sweeps
}

// ResilienceStats reports the hardening counters: migrations recovered
// by the sweep, total circuit-breaker trips, and executions deferred
// because a breaker was open.
func (c *Controller) ResilienceStats() (recoveries, breakerTrips, breakerSkips int) {
	trips := 0
	for _, b := range c.breakers {
		trips += b.trips
	}
	return c.recoveries, trips, c.breakerSkips
}

// Pending reports how many migrations are awaiting completion.
func (c *Controller) Pending() int { return len(c.pending) }
