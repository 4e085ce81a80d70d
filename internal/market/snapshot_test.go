package market

import (
	"math"
	"sync"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
)

// probe is one market query whose result must be bit-identical however
// the snapshot is shared, raced, or dropped.
type probe struct {
	kind string // "spot", "region", "freq", "sps", "avg"
	t    catalog.InstanceType
	az   catalog.AZ
	r    catalog.Region
	at   time.Time
	to   time.Time
}

// buildProbes enumerates queries for typ across every offered region at
// staggered horizons: early steps, mid-experiment, and a 90-day tail,
// deliberately out of generation order.
func buildProbes(cat *catalog.Catalog, typ catalog.InstanceType) []probe {
	var ps []probe
	horizons := []time.Duration{
		90 * 24 * time.Hour,
		6 * time.Hour,
		37 * 24 * time.Hour,
		0,
		14*24*time.Hour + 6*time.Hour,
		60 * 24 * time.Hour,
	}
	for _, r := range cat.OfferedRegions(typ) {
		for _, h := range horizons {
			at := simclock.Epoch.Add(h)
			ps = append(ps, probe{kind: "region", t: typ, r: r, at: at})
			ps = append(ps, probe{kind: "freq", t: typ, r: r, at: at})
			ps = append(ps, probe{kind: "sps", t: typ, r: r, at: at})
			ps = append(ps, probe{kind: "avg", t: typ, r: r, at: simclock.Epoch, to: at})
		}
		for _, az := range cat.Zones(r) {
			for _, h := range horizons {
				ps = append(ps, probe{kind: "spot", t: typ, az: az, at: simclock.Epoch.Add(h)})
			}
		}
	}
	return ps
}

func evalProbe(t *testing.T, m *Model, p probe) float64 {
	t.Helper()
	var (
		v   float64
		err error
	)
	switch p.kind {
	case "spot":
		v, err = m.SpotPrice(p.t, p.az, p.at)
	case "region":
		v, _, err = m.RegionSpotPrice(p.t, p.r, p.at)
	case "freq":
		v, err = m.InterruptionFrequency(p.t, p.r, p.at)
	case "sps":
		v, err = m.PlacementScoreLatent(p.t, p.r, p.at)
	case "avg":
		v, err = m.AveragePrice(p.t, p.r, p.at, p.to)
	}
	if err != nil {
		t.Fatalf("probe %+v: %v", p, err)
	}
	return v
}

// TestSnapshotConcurrentStress has 12 goroutines concurrently extending
// and reading one seed's snapshot at staggered horizons and asserts
// every sample is bit-exact against a sequentially materialised model.
// Run under -race this is the snapshot's publication-safety gate.
func TestSnapshotConcurrentStress(t *testing.T) {
	const seed = 42
	typ := catalog.InstanceType("m5.xlarge")
	probes := buildProbes(catalog.Default(), typ)

	// Sequential reference: a private model, one goroutine, in-order.
	ref := New(catalog.Default(), seed, simclock.Epoch)
	want := make([]float64, len(probes))
	for i, p := range probes {
		want[i] = evalProbe(t, ref, p)
	}

	snap := NewSnapshot(catalog.Default(), seed, simclock.Epoch)
	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := FromSnapshot(snap)
			// Stagger: each goroutine starts at a different probe and
			// wraps, so extensions race from every horizon at once.
			for i := range probes {
				j := (i*7 + g*len(probes)/workers) % len(probes)
				got := evalProbe(t, m, probes[j])
				if math.Float64bits(got) != math.Float64bits(want[j]) {
					select {
					case errs <- probes[j].kind:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for kind := range errs {
		t.Fatalf("concurrent %s probe diverged from sequential reference", kind)
	}
	if snap.ResidentSegments() == 0 {
		t.Fatal("stress run published no segments")
	}
}

// TestSnapshotStoreSharing: same (seed, start) yields the same
// snapshot; a different seed or start yields a different one.
func TestSnapshotStoreSharing(t *testing.T) {
	st := NewSnapshotStore(catalog.Default(), 0)
	a := st.Acquire(42, simclock.Epoch)
	b := st.Acquire(42, simclock.Epoch)
	if a != b {
		t.Fatal("same (seed, start) did not share a snapshot")
	}
	if c := st.Acquire(43, simclock.Epoch); c == a {
		t.Fatal("different seed shared a snapshot")
	}
	if d := st.Acquire(42, simclock.Epoch.Add(time.Hour)); d == a {
		t.Fatal("different start shared a snapshot")
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
}

// TestSnapshotStoreHighWaterEviction: crossing the segment high-water
// mark drops the least-recently-acquired snapshot from the store. The
// dropped snapshot stays intact for whoever holds it, and re-acquiring
// its key builds a fresh one; both read back bit-identically.
func TestSnapshotStoreHighWaterEviction(t *testing.T) {
	typ := catalog.InstanceType("m5.xlarge")
	probes := buildProbes(catalog.Default(), typ)

	grow := func(s *Snapshot) []float64 {
		m := FromSnapshot(s)
		out := make([]float64, len(probes))
		for i, p := range probes {
			out[i] = evalProbe(t, m, p)
		}
		return out
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: probe %d (%s) = %v, want %v", what, i, probes[i].kind, got[i], want[i])
			}
		}
	}

	ref := NewSnapshot(catalog.Default(), 1, simclock.Epoch)
	want := grow(ref)
	per := ref.ResidentSegments()
	if per == 0 {
		t.Fatal("no segments materialised")
	}

	// A limit that holds ~2 such snapshots.
	limit := 2*per + per/2
	st := NewSnapshotStore(catalog.Default(), limit)
	s1 := st.Acquire(1, simclock.Epoch)
	grow(s1)
	s2 := st.Acquire(2, simclock.Epoch)
	grow(s2)
	s3 := st.Acquire(3, simclock.Epoch)
	grow(s3)
	// s3's growth crossed the mark only after Acquire ran, so trigger
	// enforcement with another acquire.
	st.Acquire(3, simclock.Epoch)

	if n := st.Len(); n != 2 {
		t.Fatalf("store holds %d snapshots past the high-water mark, want 2", n)
	}
	if total := st.ResidentSegments(); total > limit {
		t.Fatalf("resident %d exceeds limit %d after enforcement", total, limit)
	}
	if got := st.Acquire(2, simclock.Epoch); got != s2 {
		t.Fatal("a snapshot within the mark was dropped")
	}

	// The dropped snapshot is still the same realization, bit for bit,
	// and so is the one rebuilt for its key.
	same("dropped snapshot", grow(s1), want)
	s1b := st.Acquire(1, simclock.Epoch)
	if s1b == s1 {
		t.Fatal("re-acquire returned the dropped snapshot")
	}
	same("rebuilt snapshot", grow(s1b), want)
}

// TestSnapshotStoreBoundsHeldSnapshots: a long run over many seeds
// holds only the snapshots that fit the high-water mark, not every
// seed it ever acquired.
func TestSnapshotStoreBoundsHeldSnapshots(t *testing.T) {
	typ := catalog.InstanceType("m5.xlarge")
	day20 := simclock.Epoch.Add(20 * 24 * time.Hour)
	st := NewSnapshotStore(catalog.Default(), 300)
	for seed := int64(1); seed <= 50; seed++ {
		m := FromSnapshot(st.Acquire(seed, simclock.Epoch))
		for _, r := range m.Catalog().OfferedRegions(typ) {
			if _, _, err := m.RegionSpotPrice(typ, r, day20); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := st.Len(); n > 6 {
		t.Fatalf("store holds %d snapshots after 50 seeds under a 300-segment limit (resident %d), want <= 6",
			n, st.ResidentSegments())
	}
}

// TestPriceSeriesMatchesSpotPrice pins the lock-free handle to the
// query it replaces.
func TestPriceSeriesMatchesSpotPrice(t *testing.T) {
	m := New(catalog.Default(), 42, simclock.Epoch)
	typ := catalog.InstanceType("m5.xlarge")
	az := m.Catalog().Zones("us-east-1")[0]
	ps, err := m.PriceSeries(typ, az)
	if err != nil {
		t.Fatal(err)
	}
	for h := -6 * time.Hour; h <= 60*24*time.Hour; h += 13 * time.Hour {
		at := simclock.Epoch.Add(h)
		want, err := m.SpotPrice(typ, az, at)
		if err != nil {
			t.Fatal(err)
		}
		if got := ps.At(at); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PriceSeries.At(%v) = %v, SpotPrice = %v", at, got, want)
		}
	}
	if _, err := m.PriceSeries(typ, catalog.AZ("atlantis-1a")); err == nil {
		t.Fatal("PriceSeries for unknown AZ succeeded")
	}
}
