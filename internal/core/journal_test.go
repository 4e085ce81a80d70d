package core

import (
	"errors"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

const testRegion = catalog.Region("us-east-1")

var errTestFault = errors.New("test fault")

func TestCrashRestartReplaysJournaledPending(t *testing.T) {
	sv, deps := newSpotVerse(t, Config{Journal: true, Seed: 901})
	relaunched := 0
	if err := sv.OnInterrupted("w1", testRegion, func(strategy.Placement) { relaunched++ }); err != nil {
		t.Fatal(err)
	}

	// The write-ahead record must be durable before the crash.
	items, err := deps.Dynamo.Scan(JournalTable, "jrnl#")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Attrs["open"] != "1" {
		t.Fatalf("journal before crash = %+v", items)
	}

	sv.CrashRestart()
	restarts, replayed, dropped, _, _, _ := sv.Controller().RecoveryStats()
	if restarts != 1 || replayed != 1 || dropped != 0 {
		t.Fatalf("restarts=%d replayed=%d dropped=%d, want 1/1/0", restarts, replayed, dropped)
	}

	// The pre-crash Step Functions execution survives the kill (it is an
	// AWS-side actor) and still owns the relaunch closure: exactly one
	// relaunch lands, committed through the journal's conditional write.
	if err := deps.Engine.Run(simclock.Epoch.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if relaunched != 1 {
		t.Fatalf("relaunched = %d, want exactly 1", relaunched)
	}
	items, _ = deps.Dynamo.Scan(JournalTable, "jrnl#")
	if len(items) != 1 || items[0].Attrs["open"] != "0" {
		t.Fatalf("journal after relaunch = %+v, want committed (open=0)", items)
	}

	// A second crash finds nothing open: the committed entry must not be
	// replayed into a duplicate relaunch.
	sv.CrashRestart()
	restarts, replayed, _, _, _, _ = sv.Controller().RecoveryStats()
	if restarts != 2 || replayed != 1 {
		t.Fatalf("after 2nd crash: restarts=%d replayed=%d, want 2/1", restarts, replayed)
	}
	if err := deps.Engine.Run(simclock.Epoch.Add(4 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if relaunched != 1 {
		t.Fatalf("relaunched = %d after second restart, want still 1", relaunched)
	}
}

func TestCrashRestartWithoutJournalDropsPending(t *testing.T) {
	sv, _ := newSpotVerse(t, Config{Seed: 902})
	if err := sv.OnInterrupted("w1", testRegion, func(strategy.Placement) {}); err != nil {
		t.Fatal(err)
	}
	sv.CrashRestart()
	restarts, replayed, dropped, _, _, _ := sv.Controller().RecoveryStats()
	if restarts != 1 || replayed != 0 || dropped != 1 {
		t.Fatalf("restarts=%d replayed=%d dropped=%d, want 1/0/1", restarts, replayed, dropped)
	}
}

func TestJournalMarkDoneExactlyOnce(t *testing.T) {
	sv, deps := newSpotVerse(t, Config{Journal: true, Seed: 903})
	c := sv.Controller()
	p := &pendingMigration{id: "w9", region: testRegion, since: deps.Engine.Now()}
	c.jrnl.record(p)
	if v := c.jrnl.markDone(p); v != commitProceed {
		t.Fatalf("first commit verdict = %d, want commitProceed", v)
	}
	// The same migration committed again — the race a crash leaves
	// between a stale in-flight execution and a replayed entry — must
	// lose the open="1" conditional.
	if v := c.jrnl.markDone(&pendingMigration{id: "w9", region: testRegion, since: p.since}); v != commitSkip {
		t.Fatalf("second commit verdict = %d, want commitSkip", v)
	}
	// A migration the journal never saw falls back to in-memory
	// dedupe rather than refusing the relaunch outright.
	if v := c.jrnl.markDone(&pendingMigration{id: "unjournaled", region: testRegion}); v != commitProceed {
		t.Fatalf("unjournaled commit verdict = %d, want commitProceed", v)
	}
}

// Two incarnations that both lost their record write for one migration
// win the lease in turn and each reach the commit point. Fenced, the
// first commit inserts the entry already closed, so only one relaunch
// actuates; unfenced, both fall back to in-memory dedupe and actuate.
func TestMarkDoneAfterLostRecordsActuatesOnce(t *testing.T) {
	for _, tc := range []struct {
		disableFencing bool
		want           int
	}{{false, 1}, {true, 2}} {
		deps := newDeps(905)
		incarnation := func(holder string) *journal {
			j, err := newJournal(Config{Journal: true, Lease: true, DisableFencing: tc.disableFencing}, deps)
			if err != nil {
				t.Fatal(err)
			}
			j.fence = &lease{deps: deps, holder: holder, ttl: time.Hour}
			return j
		}
		a, b := incarnation("a"), incarnation("b")
		p := &pendingMigration{id: "w1", region: testRegion, since: deps.Engine.Now()}
		deps.Dynamo.SetFault(failEverything)
		a.record(p)
		b.record(p)
		deps.Dynamo.SetFault(nil)
		if a.lost != 1 || b.lost != 1 {
			t.Fatalf("lost records = %d/%d, want 1/1", a.lost, b.lost)
		}
		actuated := 0
		if a.markDone(p) == commitProceed {
			actuated++
		}
		// a's lease expires and b takes it over before committing.
		if err := deps.Engine.RunFor(2 * time.Hour); err != nil {
			t.Fatal(err)
		}
		if b.markDone(p) == commitProceed {
			actuated++
		}
		if actuated != tc.want {
			t.Fatalf("disableFencing=%v: %d relaunches actuated, want %d", tc.disableFencing, actuated, tc.want)
		}
	}
}

func TestCrashRestartReplaysBreakerState(t *testing.T) {
	sv, deps := newSpotVerse(t, Config{Journal: true, Seed: 904})
	c := sv.Controller()
	now := deps.Engine.Now()
	// Trip a breaker, snapshot lands in the journal table.
	for i := 0; i < DefaultBreakerFailures; i++ {
		c.noteFailure(errTestFault, now)
	}
	if !c.anyBreakerOpen(now) {
		t.Fatal("breaker did not trip")
	}
	sv.CrashRestart()
	if !c.anyBreakerOpen(now) {
		t.Fatal("tripped breaker state lost across restart")
	}
}
