package core

import (
	"errors"
	"strconv"
	"time"

	"spotverse/internal/services/dynamo"
)

// leaseKey is the single lease item in the journal table. One lease
// guards the whole control plane: whoever holds it is the incarnation
// allowed to commit relaunches.
const leaseKey = "lease#controller"

// lease is the Controller's fencing lease, stored in the DynamoDB
// journal table. The item carries the holder's ID, a monotonically
// increasing fencing token, and an expiry instant:
//
//   - acquire: a conditional insert (PutIfAbsent) creates the item at
//     token 1; an expired item is taken over with a conditional write
//     on (holder, token) that bumps the token.
//   - renew: a conditional write on (holder, token) extends the expiry
//     without changing the token.
//   - commitCheck: a renew issued at the commit point — success proves
//     this incarnation still owns the fencing token at the instant of
//     the relaunch commit; a ConditionFailed means it was deposed and
//     the commit must be refused.
//
// Every step is fail-safe under injected faults: if the journal cannot
// be reached, the lease is treated as not held and commits are refused
// rather than risked — a later sweep retries once the journal heals.
type lease struct {
	deps   Deps
	holder string
	ttl    time.Duration

	held  bool
	token int

	acquires  int
	renewals  int
	takeovers int
	fenced    int
	lost      int
}

func newLease(holder string, deps Deps) *lease {
	return &lease{deps: deps, holder: holder, ttl: DefaultLeaseTTL}
}

func (l *lease) item(expires time.Time, token int) dynamo.Item {
	return dynamo.Item{
		Key: leaseKey,
		Attrs: map[string]string{
			"holder":  l.holder,
			"token":   strconv.Itoa(token),
			"expires": expires.Format(time.RFC3339Nano),
		},
	}
}

// conds is the fencing condition: the stored lease must still name this
// holder at this token.
func (l *lease) conds() map[string]string {
	return map[string]string{"holder": l.holder, "token": strconv.Itoa(l.token)}
}

// read fetches the current lease item with bounded retries. A nil item
// pointer with nil error means the item does not exist yet.
func (l *lease) read() (*dynamo.Item, error) {
	var it dynamo.Item
	var err error
	for i := 0; i < journalRetries; i++ {
		it, err = l.deps.Dynamo.Get(JournalTable, leaseKey)
		if err == nil || errors.Is(err, dynamo.ErrItemNotFound) {
			break
		}
	}
	if errors.Is(err, dynamo.ErrItemNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &it, nil
}

// ensure makes this incarnation the lease holder if it can: fresh
// acquire when no lease exists, renew when already holding, takeover
// when the current holder's lease has expired. It reports whether the
// lease is held afterwards. Unreachable journal → not held (fail safe).
func (l *lease) ensure(now time.Time) bool {
	cur, err := l.read()
	if err != nil {
		l.lost++
		l.held = false
		return false
	}
	expires := now.Add(l.ttl)
	if cur == nil {
		// No lease yet: race for the first token.
		err := l.deps.Dynamo.PutIfAbsent(JournalTable, l.item(expires, 1))
		if errors.Is(err, dynamo.ErrConditionFailed) {
			l.held = false
			return false
		}
		if err != nil {
			l.lost++
			l.held = false
			return false
		}
		l.token = 1
		l.held = true
		l.acquires++
		return true
	}
	curToken, _ := strconv.Atoi(cur.Attrs["token"])
	curExpiry, _ := time.Parse(time.RFC3339Nano, cur.Attrs["expires"])
	if cur.Attrs["holder"] == l.holder {
		// Our lease (possibly from a previous incarnation of the same
		// ID): renew at the stored token, conditional on it not having
		// moved under us.
		it := l.item(expires, curToken)
		err := l.deps.Dynamo.UpdateIfAll(JournalTable, it,
			map[string]string{"holder": l.holder, "token": cur.Attrs["token"]})
		if err != nil {
			if !errors.Is(err, dynamo.ErrConditionFailed) {
				l.lost++
			}
			l.held = false
			return false
		}
		l.token = curToken
		l.held = true
		l.renewals++
		return true
	}
	if curExpiry.After(now) {
		// Someone else holds a live lease.
		l.held = false
		return false
	}
	// Expired foreign lease: take over, bumping the fencing token so the
	// deposed holder's conditional writes at the old token lose.
	next := l.item(expires, curToken+1)
	err = l.deps.Dynamo.UpdateIfAll(JournalTable, next,
		map[string]string{"holder": cur.Attrs["holder"], "token": cur.Attrs["token"]})
	if err != nil {
		if !errors.Is(err, dynamo.ErrConditionFailed) {
			l.lost++
		}
		l.held = false
		return false
	}
	l.token = curToken + 1
	l.held = true
	l.takeovers++
	return true
}

// commitCheck is the fencing gate consulted before every relaunch
// commit: a conditional renew on (holder, token) that only the live
// fencing-token owner can win. Refusals are counted as fenced; an
// unreachable journal refuses too (fail safe — the sweep retries).
func (l *lease) commitCheck(now time.Time) bool {
	if !l.held && !l.ensure(now) {
		l.fenced++
		return false
	}
	err := l.deps.Dynamo.UpdateIfAll(JournalTable, l.item(now.Add(l.ttl), l.token), l.conds())
	if err == nil {
		l.renewals++
		return true
	}
	if errors.Is(err, dynamo.ErrConditionFailed) {
		// Deposed: a rival took over and bumped the token.
		l.held = false
	} else {
		l.lost++
	}
	l.fenced++
	return false
}
