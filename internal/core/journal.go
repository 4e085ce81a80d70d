package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/services/dynamo"
)

// JournalTable is the DynamoDB table backing the Controller's
// write-ahead journal: `jrnl#<workload>` items for pending-migration
// transitions and `brk#<service@region>` items for breaker snapshots.
const JournalTable = "spotverse-journal"

// Journal entry statuses, in lifecycle order. An entry is live while its
// "open" attribute is "1"; the relaunched transition closes it.
const (
	journalRecorded   = "recorded"
	journalPublished  = "published"
	journalRelaunched = "relaunched"
	journalFailed     = "failed"
)

const (
	journalPrefix = "jrnl#"
	breakerPrefix = "brk#"
	// journalRetries bounds the re-read/re-write attempts around a
	// transient fault on the commit path. DynamoDB faults inject before
	// any mutation, so a retry never double-applies.
	journalRetries = 3
)

// journal is the Controller's write-ahead log. Every pending-migration
// transition is persisted before the in-memory registry mutates, so a
// cold-started Controller can rebuild its state by replaying the open
// entries; the relaunched transition is a conditional write on the
// "open" attribute, which is what makes relaunches exactly-once across
// crash-restarts (two incarnations racing the same migration cannot
// both win the condition).
//
// Journal writes are best-effort under injected faults: a lost write
// degrades recovery for that one entry (the crash-restart rescan of the
// provider is the backstop) but never blocks the live migration path.
type journal struct {
	cfg  Config
	deps Deps

	// fence is the controller's lease when Config.Lease is on (nil
	// otherwise): markDone proves fencing-token ownership through it
	// before committing, and an unreachable journal refuses the commit
	// instead of proceeding blind. Config.DisableFencing bypasses both
	// checks — the deliberately broken build the fuzzer must catch.
	fence *lease

	writes    int
	lost      int // journal writes abandoned to injected faults
	skips     int // relaunches refused by the conditional commit
	deferrals int // commits deferred by fencing or an unreachable journal
}

func newJournal(cfg Config, deps Deps) (*journal, error) {
	if err := deps.Dynamo.CreateTable(JournalTable); err != nil && !errors.Is(err, dynamo.ErrTableExists) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &journal{cfg: cfg, deps: deps}, nil
}

func (j *journal) note(err error) {
	if err != nil {
		j.lost++
		return
	}
	j.writes++
}

func journalItem(p *pendingMigration, status string) dynamo.Item {
	open := "1"
	if status == journalRelaunched {
		open = "0"
	}
	return dynamo.Item{
		Key: journalPrefix + p.id,
		Attrs: map[string]string{
			"id":       p.id,
			"region":   string(p.region),
			"status":   status,
			"open":     open,
			"since":    p.since.Format(time.RFC3339Nano),
			"attempts": strconv.Itoa(p.attempts),
			"nextTry":  p.nextTry.Format(time.RFC3339Nano),
		},
	}
}

// record persists a fresh interruption before the in-memory registry
// learns of it. A conditional insert covers the common case; when the
// key exists — a re-interruption of a live entry, or a new interruption
// of a workload whose previous entry closed — this interruption
// supersedes it unconditionally.
func (j *journal) record(p *pendingMigration) {
	it := journalItem(p, journalRecorded)
	err := j.deps.Dynamo.PutIfAbsent(JournalTable, it)
	if errors.Is(err, dynamo.ErrConditionFailed) {
		err = j.deps.Dynamo.Put(JournalTable, it)
	}
	j.note(err)
}

// update persists a status transition on a live entry, conditional on
// it still being open; a closed or never-recorded entry has nothing to
// transition.
func (j *journal) update(p *pendingMigration, status string) {
	err := j.deps.Dynamo.UpdateIf(JournalTable, journalItem(p, status), "open", "1")
	if errors.Is(err, dynamo.ErrConditionFailed) {
		return
	}
	j.note(err)
}

// fencing reports whether the lease-fenced commit path is active.
func (j *journal) fencing() bool {
	return j.fence != nil && !j.cfg.DisableFencing
}

// commitVerdict is markDone's three-way outcome.
type commitVerdict int

const (
	// commitProceed: the entry is closed under this incarnation's
	// fencing token (or the unfenced fallback applies) — actuate.
	commitProceed commitVerdict = iota
	// commitSkip: another incarnation already relaunched this migration
	// — close the local entry without actuating.
	commitSkip
	// commitDefer: exactly-once could not be proved (this incarnation is
	// fenced out, or the journal is unreachable in fenced mode) — keep
	// the entry pending and let a later sweep retry.
	commitDefer
)

// markDone is the exactly-once commit point consulted before a relaunch
// actuates. It closes the entry with a conditional write on open="1";
// losing the condition means another incarnation of the Controller
// already relaunched this migration, so the caller must not. A missing
// entry (its record write was lost to a fault) falls back to the
// caller's in-memory dedupe and proceeds; in fenced mode it is instead
// inserted already closed, and losing that insert skips the relaunch.
//
// Without a lease, an unreachable journal proceeds — an availability
// choice that is safe with a single incarnation (the in-memory done
// flag dedupes) but is exactly the split-brain hole: two incarnations
// that both cannot read the journal both proceed. With the lease on,
// the commit first proves fencing-token ownership through the lease's
// conditional renew, and any residual journal unreachability defers the
// commit — the entry stays pending and a later sweep retries once the
// journal heals.
func (j *journal) markDone(p *pendingMigration) commitVerdict {
	if j.fencing() && !j.fence.commitCheck(j.deps.Engine.Now()) {
		j.deferrals++
		return commitDefer
	}
	var err error
	var cur dynamo.Item
	for i := 0; i < journalRetries; i++ {
		cur, err = j.deps.Dynamo.Get(JournalTable, journalPrefix+p.id)
		if err == nil || errors.Is(err, dynamo.ErrItemNotFound) {
			break
		}
	}
	if errors.Is(err, dynamo.ErrItemNotFound) {
		if !j.fencing() {
			return commitProceed
		}
		// Another incarnation may have lost its record write too and be
		// committing the same migration: only the first to insert the
		// closed entry actuates.
		err = j.deps.Dynamo.PutIfAbsent(JournalTable, journalItem(p, journalRelaunched))
		switch {
		case errors.Is(err, dynamo.ErrConditionFailed):
			j.skips++
			return commitSkip
		case err != nil:
			j.lost++
			j.deferrals++
			return commitDefer
		}
		j.note(nil)
		return commitProceed
	}
	if err == nil && cur.Attrs["open"] != "1" {
		j.skips++
		return commitSkip
	}
	if err != nil && j.fencing() {
		// Fenced mode never commits blind: the read never succeeded, so
		// this incarnation cannot know whether the entry is still open.
		j.lost++
		j.deferrals++
		return commitDefer
	}
	it := journalItem(p, journalRelaunched)
	for i := 0; i < journalRetries; i++ {
		err = j.deps.Dynamo.UpdateIf(JournalTable, it, "open", "1")
		if err == nil || errors.Is(err, dynamo.ErrConditionFailed) {
			break
		}
	}
	if errors.Is(err, dynamo.ErrConditionFailed) {
		j.skips++
		return commitSkip
	}
	if err != nil && j.fencing() {
		// The conditional close itself never landed: defer rather than
		// actuate a relaunch the journal cannot prove exactly-once.
		j.lost++
		j.deferrals++
		return commitDefer
	}
	j.note(err)
	return commitProceed
}

func breakerItem(key string, b *breaker) dynamo.Item {
	return dynamo.Item{
		Key: breakerPrefix + key,
		Attrs: map[string]string{
			"state":       strconv.Itoa(int(b.state)),
			"consecutive": strconv.Itoa(b.consecutive),
			"openedAt":    b.openedAt.Format(time.RFC3339Nano),
			"trips":       strconv.Itoa(b.trips),
		},
	}
}

// snapshotBreaker persists one breaker's current state so a replayed
// Controller honours cooldowns opened before the crash.
func (j *journal) snapshotBreaker(key string, b *breaker) {
	j.note(j.deps.Dynamo.Put(JournalTable, breakerItem(key, b)))
}

// replay scans the journal and rebuilds the open pending-migration set
// and the breaker registry for a cold-started Controller. Relaunch
// closures cannot be journaled; the caller reattaches them via its
// relaunch resolver.
func (j *journal) replay() (pending map[string]*pendingMigration, breakers map[string]*breaker) {
	pending = make(map[string]*pendingMigration)
	breakers = make(map[string]*breaker)
	items, err := j.deps.Dynamo.Scan(JournalTable, journalPrefix)
	if err == nil {
		for _, it := range items {
			if it.Attrs["open"] != "1" {
				continue
			}
			since, _ := time.Parse(time.RFC3339Nano, it.Attrs["since"])
			nextTry, _ := time.Parse(time.RFC3339Nano, it.Attrs["nextTry"])
			attempts, _ := strconv.Atoi(it.Attrs["attempts"])
			id := it.Attrs["id"]
			pending[id] = &pendingMigration{
				id:       id,
				region:   catalog.Region(it.Attrs["region"]),
				since:    since,
				attempts: attempts,
				nextTry:  nextTry,
			}
		}
	}
	bitems, err := j.deps.Dynamo.Scan(JournalTable, breakerPrefix)
	if err == nil {
		for _, it := range bitems {
			b := newBreaker(DefaultBreakerFailures, DefaultBreakerCooldown)
			st, _ := strconv.Atoi(it.Attrs["state"])
			b.state = breakerState(st)
			b.consecutive, _ = strconv.Atoi(it.Attrs["consecutive"])
			b.openedAt, _ = time.Parse(time.RFC3339Nano, it.Attrs["openedAt"])
			b.trips, _ = strconv.Atoi(it.Attrs["trips"])
			breakers[it.Key[len(breakerPrefix):]] = b
		}
	}
	return pending, breakers
}
