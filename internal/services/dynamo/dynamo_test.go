package dynamo

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"spotverse/internal/catalog"
	"spotverse/internal/cost"
)

func newStore() (*Store, *cost.Ledger) {
	l := cost.NewLedger()
	return New(l), l
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newStore()
	if err := s.CreateTable("ckpt"); err != nil {
		t.Fatal(err)
	}
	in := Item{Key: "w1", Attrs: map[string]string{"shard": "3", "state": "done"}}
	if err := s.Put("ckpt", in); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("ckpt", "w1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs["shard"] != "3" || got.Attrs["state"] != "done" {
		t.Fatalf("got %+v", got)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	_ = s.Put("t", Item{Key: "k", Attrs: map[string]string{"a": "1"}})
	it, _ := s.Get("t", "k")
	it.Attrs["a"] = "evil"
	again, _ := s.Get("t", "k")
	if again.Attrs["a"] != "1" {
		t.Fatal("caller mutation leaked into store")
	}
}

func TestPutIfAbsent(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	if err := s.PutIfAbsent("t", Item{Key: "k", Attrs: map[string]string{"v": "1"}}); err != nil {
		t.Fatal(err)
	}
	err := s.PutIfAbsent("t", Item{Key: "k", Attrs: map[string]string{"v": "2"}})
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("err = %v, want ErrConditionFailed", err)
	}
	it, _ := s.Get("t", "k")
	if it.Attrs["v"] != "1" {
		t.Fatal("losing write overwrote the item")
	}
}

func TestUpdateIf(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	_ = s.Put("t", Item{Key: "k", Attrs: map[string]string{"state": "running"}})
	if err := s.UpdateIf("t", Item{Key: "k", Attrs: map[string]string{"state": "done"}}, "state", "running"); err != nil {
		t.Fatal(err)
	}
	err := s.UpdateIf("t", Item{Key: "k", Attrs: map[string]string{"state": "zombie"}}, "state", "running")
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("err = %v, want ErrConditionFailed", err)
	}
	err = s.UpdateIf("t", Item{Key: "missing", Attrs: map[string]string{"state": "x"}}, "state", "anything")
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("missing item err = %v, want ErrConditionFailed", err)
	}
}

func TestValidation(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	if err := s.Put("t", Item{Key: ""}); !errors.Is(err, ErrEmptyPartitionKey) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Put("t", Item{Key: "k", Attrs: map[string]string{"_hidden": "x"}}); !errors.Is(err, ErrReservedAttrPrefix) {
		t.Fatalf("err = %v", err)
	}
}

func TestTableErrors(t *testing.T) {
	s, _ := newStore()
	if err := s.Put("nope", Item{Key: "k"}); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err = %v", err)
	}
	_ = s.CreateTable("t")
	if err := s.CreateTable("t"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Get("t", "missing"); !errors.Is(err, ErrItemNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestScanPrefixSorted(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	for i := 0; i < 5; i++ {
		_ = s.Put("t", Item{Key: fmt.Sprintf("shard#%d", 4-i), Attrs: map[string]string{"i": "x"}})
	}
	_ = s.Put("t", Item{Key: "other#1", Attrs: nil})
	items, err := s.Scan("t", "shard#")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("scan = %d items, want 5", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Key <= items[i-1].Key {
			t.Fatal("scan not sorted")
		}
	}
}

func TestDeleteIdempotentAndBilled(t *testing.T) {
	s, l := newStore()
	_ = s.CreateTable("t")
	_ = s.Put("t", Item{Key: "k"})
	before := l.Of(cost.CategoryDynamoDB)
	if err := s.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("t", "k"); err != nil {
		t.Fatal("delete of missing key should be a no-op")
	}
	if l.Of(cost.CategoryDynamoDB) <= before {
		t.Fatal("deletes not billed")
	}
}

// flaky fails the first n data-plane calls with a transient error, then
// heals — the shape of a chaos brownout a journal write retries through.
// Faults inject before any mutation, so a failed call leaves no trace.
func flaky(n int) FaultFunc {
	return func(op string, _ catalog.Region) error {
		if n > 0 {
			n--
			return errTransient
		}
		return nil
	}
}

var errTransient = errors.New("injected transient fault")

// retry mirrors the journal's bounded-retry loop: call fn until it
// stops returning the transient error, up to attempts times.
func retry(attempts int, fn func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = fn(); !errors.Is(err, errTransient) {
			return err
		}
	}
	return err
}

func TestPutIfAbsentRetryIdempotent(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	s.SetFault(flaky(2))
	it := Item{Key: "jrnl#w1", Attrs: map[string]string{"status": "recorded", "open": "1"}}
	if err := retry(3, func() error { return s.PutIfAbsent("t", it) }); err != nil {
		t.Fatalf("retried PutIfAbsent = %v, want success", err)
	}
	// The two faulted attempts must not have landed half-writes: exactly
	// one item exists and a fresh conditional insert still finds it.
	items, _ := s.Scan("t", "jrnl#")
	if len(items) != 1 {
		t.Fatalf("scan = %d items, want 1", len(items))
	}
	if err := s.PutIfAbsent("t", it); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("re-insert err = %v, want ErrConditionFailed", err)
	}
}

func TestUpdateIfRetryIdempotent(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	_ = s.Put("t", Item{Key: "k", Attrs: map[string]string{"status": "recorded", "open": "1"}})
	s.SetFault(flaky(2))
	commit := Item{Key: "k", Attrs: map[string]string{"status": "relaunched", "open": "0"}}
	if err := retry(3, func() error { return s.UpdateIf("t", commit, "open", "1") }); err != nil {
		t.Fatalf("retried UpdateIf = %v, want success", err)
	}
	got, _ := s.Get("t", "k")
	if got.Attrs["status"] != "relaunched" || got.Attrs["open"] != "0" {
		t.Fatalf("item = %+v after retried commit", got.Attrs)
	}
	// A duplicate commit — a second incarnation racing the same
	// transition — must lose the conditional, not double-apply.
	if err := s.UpdateIf("t", commit, "open", "1"); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("duplicate commit err = %v, want ErrConditionFailed", err)
	}
}

func TestRetryExhaustionSurfacesFault(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	s.SetFault(flaky(10))
	err := retry(3, func() error { return s.PutIfAbsent("t", Item{Key: "k"}) })
	if !errors.Is(err, errTransient) {
		t.Fatalf("exhausted retries err = %v, want the injected fault", err)
	}
	// Faults inject before the mutation, so three failed attempts must
	// leave no trace of the key.
	s.SetFault(nil)
	if _, err := s.Get("t", "k"); !errors.Is(err, ErrItemNotFound) {
		t.Fatalf("faulted writes leaked state: %v", err)
	}
}

func TestBillingCounts(t *testing.T) {
	s, l := newStore()
	_ = s.CreateTable("t")
	_ = s.Put("t", Item{Key: "a"})
	_ = s.Put("t", Item{Key: "b"})
	_, _ = s.Get("t", "a")
	reads, writes := s.Stats()
	if reads != 1 || writes != 2 {
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
	want := 2*cost.DynamoWriteUSD + 1*cost.DynamoReadUSD
	if got := l.Of(cost.CategoryDynamoDB); got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("billed %v, want %v", got, want)
	}
}

func TestUpdateIfAll(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	_ = s.Put("t", Item{Key: "lease", Attrs: map[string]string{"holder": "a", "token": "3"}})
	// All conditions hold: the write lands.
	next := Item{Key: "lease", Attrs: map[string]string{"holder": "a", "token": "3", "expires": "soon"}}
	if err := s.UpdateIfAll("t", next, map[string]string{"holder": "a", "token": "3"}); err != nil {
		t.Fatal(err)
	}
	// One condition stale (the fencing-token case): the write loses.
	err := s.UpdateIfAll("t", Item{Key: "lease", Attrs: map[string]string{"holder": "a", "token": "2"}},
		map[string]string{"holder": "a", "token": "2"})
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("stale token err = %v, want ErrConditionFailed", err)
	}
	it, _ := s.Get("t", "lease")
	if it.Attrs["token"] != "3" || it.Attrs["expires"] != "soon" {
		t.Fatalf("losing write mutated the item: %+v", it.Attrs)
	}
	// A missing item never matches.
	err = s.UpdateIfAll("t", Item{Key: "ghost", Attrs: map[string]string{"a": "1"}}, map[string]string{"a": "1"})
	if !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("missing item err = %v, want ErrConditionFailed", err)
	}
	// Empty conditions degrade to "item exists".
	if err := s.UpdateIfAll("t", Item{Key: "lease", Attrs: map[string]string{"holder": "b"}}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateIfAllReportsSmallestFailingAttr(t *testing.T) {
	s, _ := newStore()
	_ = s.CreateTable("t")
	_ = s.Put("t", Item{Key: "k", Attrs: map[string]string{"x": "1", "y": "1"}})
	// Both conditions fail; the error must name the lexically smallest
	// attribute on every run (map iteration must not leak).
	for i := 0; i < 50; i++ {
		err := s.UpdateIfAll("t", Item{Key: "k", Attrs: map[string]string{"x": "9"}},
			map[string]string{"y": "0", "x": "0"})
		if !errors.Is(err, ErrConditionFailed) {
			t.Fatalf("err = %v, want ErrConditionFailed", err)
		}
		if want := `attr "x"`; !strings.Contains(err.Error(), want) {
			t.Fatalf("err %q does not name the smallest failing attr %s", err, want)
		}
	}
}

// TestScanSinceVersion pins the table write version ScanSince keys on:
// every successful write bumps it by exactly one, nothing else does, and
// an unchanged-version scan is billed and fault-checked exactly like
// Scan even though it returns no items.
func TestScanSinceVersion(t *testing.T) {
	s, _ := newStore()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ver := func() uint64 {
		t.Helper()
		_, v, err := s.ScanSince("t", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := ver(); v != 1 {
		t.Fatalf("fresh table at version %d, want 1", v)
	}
	item := func(v string) Item { return Item{Key: "k", Attrs: map[string]string{"v": v}} }
	bumps := []struct {
		name  string
		write func() error
	}{
		{"put", func() error { return s.Put("t", item("1")) }},
		{"put-if-absent", func() error { return s.PutIfAbsent("t", Item{Key: "k2", Attrs: map[string]string{"v": "1"}}) }},
		{"update-if", func() error { return s.UpdateIf("t", item("2"), "v", "1") }},
		{"update-if-all", func() error { return s.UpdateIfAll("t", item("3"), map[string]string{"v": "2"}) }},
		{"delete", func() error { return s.Delete("t", "k2") }},
		{"delete-missing", func() error { return s.Delete("t", "absent") }},
	}
	for _, b := range bumps {
		before := ver()
		if err := b.write(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if after := ver(); after != before+1 {
			t.Fatalf("%s: version %d -> %d, want +1", b.name, before, after)
		}
	}
	holds := []struct {
		name  string
		write func() error
	}{
		{"put-if-absent on existing key", func() error { return s.PutIfAbsent("t", item("x")) }},
		{"update-if mismatch", func() error { return s.UpdateIf("t", item("x"), "v", "stale") }},
		{"update-if missing item", func() error { return s.UpdateIf("t", Item{Key: "absent"}, "v", "") }},
		{"update-if-all mismatch", func() error { return s.UpdateIfAll("t", item("x"), map[string]string{"v": "stale"}) }},
		{"put empty key", func() error { return s.Put("t", Item{}) }},
		{"put reserved attr", func() error { return s.Put("t", Item{Key: "k", Attrs: map[string]string{"_v": "1"}}) }},
		{"put missing table", func() error { return s.Put("nope", item("x")) }},
		{"injected put fault", func() error {
			s.SetFault(func(string, catalog.Region) error { return errors.New("injected") })
			defer s.SetFault(nil)
			return s.Put("t", item("x"))
		}},
	}
	for _, h := range holds {
		before := ver()
		if err := h.write(); err == nil {
			t.Fatalf("%s: succeeded, want an error", h.name)
		}
		if after := ver(); after != before {
			t.Fatalf("%s: version %d -> %d, want unchanged", h.name, before, after)
		}
	}

	// Two stores with the same history: one scans, the other rescans at
	// the version it already holds. Reads, ledger and fault draws match.
	history := func() (*Store, *cost.Ledger, *[]string) {
		s, l := newStore()
		_ = s.CreateTable("m")
		for _, k := range []string{"a#1", "a#2", "a#3", "b#1"} {
			if err := s.Put("m", Item{Key: k, Attrs: map[string]string{"x": k}}); err != nil {
				t.Fatal(err)
			}
		}
		var ops []string
		s.SetFault(func(op string, _ catalog.Region) error { ops = append(ops, op); return nil })
		return s, l, &ops
	}
	a, la, opsA := history()
	b, lb, opsB := history()
	items, va, err := a.ScanSince("m", "a#", 0)
	if err != nil || len(items) != 3 {
		t.Fatalf("full scan: %d items, err %v", len(items), err)
	}
	if items, err = a.Scan("m", "a#"); err != nil || len(items) != 3 {
		t.Fatalf("scan: %d items, err %v", len(items), err)
	}
	if _, _, err := b.ScanSince("m", "a#", 0); err != nil {
		t.Fatal(err)
	}
	items, vb, err := b.ScanSince("m", "a#", va)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 || vb != va {
		t.Fatalf("unchanged rescan returned %d items at version %d, want 0 at %d", len(items), vb, va)
	}
	ra, wa := a.Stats()
	rb, wb := b.Stats()
	if ra != rb || wa != wb || ra != 6 {
		t.Fatalf("stats: scan (%d reads, %d writes), rescan (%d, %d)", ra, wa, rb, wb)
	}
	if la.Of(cost.CategoryDynamoDB) != lb.Of(cost.CategoryDynamoDB) {
		t.Fatalf("ledger: scan %v, rescan %v", la.Of(cost.CategoryDynamoDB), lb.Of(cost.CategoryDynamoDB))
	}
	if fmt.Sprint(*opsA) != fmt.Sprint(*opsB) {
		t.Fatalf("fault draws: scan %v, rescan %v", *opsA, *opsB)
	}
}
