package core

import (
	"errors"
	"testing"

	"spotverse/internal/catalog"
	"spotverse/internal/raceflag"
)

// warmMonitor returns a SpotVerse whose Monitor has collected and
// decoded one snapshot.
func warmMonitor(t *testing.T, seed int64) (*SpotVerse, Deps, []AgedEntry) {
	t.Helper()
	sv, deps := newSpotVerse(t, Config{Seed: seed})
	entries, err := sv.Monitor().LatestAged()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no advisor entries after the first collection")
	}
	return sv, deps, entries
}

// TestLatestAgedWarmAllocFree: while the metrics table is unwritten, a
// read is one billed scan and no copy or parse, and the Optimizer's
// pipeline on top of it stays within its three result slices.
func TestLatestAgedWarmAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
	sv, _, _ := warmMonitor(t, 21)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sv.Monitor().LatestAged(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm LatestAged allocated %v per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := sv.Optimizer().TopRegions(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("warm TopRegions allocated %v per run, want at most 3", allocs)
	}
}

// TestLatestAgedScanIsStillBilled: serving the decoded snapshot does not
// skip the scan, so reads and cost accrue as before.
func TestLatestAgedScanIsStillBilled(t *testing.T) {
	sv, deps, entries := warmMonitor(t, 22)
	before, _ := deps.Dynamo.Stats()
	if _, err := sv.Monitor().LatestAged(); err != nil {
		t.Fatal(err)
	}
	if after, _ := deps.Dynamo.Stats(); after-before != int64(len(entries)) {
		t.Fatalf("warm read billed %d reads, want %d", after-before, len(entries))
	}
}

// TestLatestAgedMalformedRowAfterDecode: a bad row written after a good
// decode surfaces as the parse error, not as the cached snapshot.
func TestLatestAgedMalformedRowAfterDecode(t *testing.T) {
	sv, deps, entries := warmMonitor(t, 23)
	key := metricsKey(catalog.M5XLarge, entries[0].Region)
	it, err := deps.Dynamo.Get(MetricsTable, key)
	if err != nil {
		t.Fatal(err)
	}
	it.Attrs["spot"] = "not-a-price"
	if err := deps.Dynamo.Put(MetricsTable, it); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := sv.Monitor().LatestAged(); err == nil {
			t.Fatalf("read %d after a malformed write returned %d entries, want the parse error", i, len(got))
		}
	}
}

// TestLatestAgedAfterCrashRedecodes: a restarted Monitor has no decoded
// snapshot, so it must decode the table again even when its
// re-collection fails and leaves the table unwritten.
func TestLatestAgedAfterCrashRedecodes(t *testing.T) {
	sv, deps, entries := warmMonitor(t, 24)
	sv.Monitor().crash()
	deps.Dynamo.SetFault(func(op string, _ catalog.Region) error {
		if op == "put" {
			return errTestFault
		}
		return nil
	})
	got, err := sv.Monitor().LatestAged()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("after crash: %d entries, want %d", len(got), len(entries))
	}
	if &got[0] == &entries[0] {
		t.Fatal("after crash: served the pre-crash slice instead of decoding")
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("after crash: entry %d = %+v, want %+v", i, got[i], entries[i])
		}
	}
}

// TestLatestAgedFaultServesLastGood: an injected scan fault degrades to
// the last decoded snapshot.
func TestLatestAgedFaultServesLastGood(t *testing.T) {
	sv, deps, entries := warmMonitor(t, 25)
	deps.Dynamo.SetFault(func(op string, _ catalog.Region) error {
		if op == "scan" {
			return errTestFault
		}
		return nil
	})
	if _, _, err := deps.Dynamo.ScanSince(MetricsTable, "", 0); !errors.Is(err, errTestFault) {
		t.Fatalf("scan fault not injected: %v", err)
	}
	got, err := sv.Monitor().LatestAged()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) || &got[0] != &entries[0] {
		t.Fatal("scan fault did not serve the last good snapshot")
	}
	if _, err := sv.Optimizer().TopRegions(nil); err != nil {
		t.Fatalf("optimizer blinded by a scan fault: %v", err)
	}
}
