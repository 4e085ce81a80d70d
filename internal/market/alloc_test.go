package market

import (
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/raceflag"
	"spotverse/internal/simclock"
)

// These tests are the runtime half of the //spotverse:hotpath gates in
// this package: the static hotpath analyzer proves the warm paths do
// not allocate by construction, and AllocsPerRun proves the compiler
// agrees. A regression in either direction fails exactly one of the two.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc gates are meaningless under -race")
	}
}

// TestAveragePriceWarmAllocFree: after the first query materialises the
// region series and its prefix sums, repeats are two slice reads.
func TestAveragePriceWarmAllocFree(t *testing.T) {
	skipUnderRace(t)
	m := New(catalog.Default(), 42, simclock.Epoch)
	typ := catalog.InstanceType("m5.xlarge")
	r := catalog.Region("us-east-1")
	from, to := simclock.Epoch, simclock.Epoch.Add(24*time.Hour)
	if _, err := m.AveragePrice(typ, r, from, to); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.AveragePrice(typ, r, from, to); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm AveragePrice allocated %v per run, want 0", allocs)
	}
}

// TestPriceSeriesAtWarmAllocFree: sampling published segments through
// the lock-free handle (PriceSeries.At -> sharedWalk.at) is read-only.
func TestPriceSeriesAtWarmAllocFree(t *testing.T) {
	skipUnderRace(t)
	m := New(catalog.Default(), 42, simclock.Epoch)
	typ := catalog.InstanceType("m5.xlarge")
	az := m.Catalog().Zones("us-east-1")[0]
	ps, err := m.PriceSeries(typ, az)
	if err != nil {
		t.Fatal(err)
	}
	last := simclock.Epoch.Add(48 * time.Hour)
	ps.At(last) // materialise through the probe window
	allocs := testing.AllocsPerRun(200, func() {
		for h := time.Duration(0); h <= 48*time.Hour; h += 7 * time.Hour {
			ps.At(simclock.Epoch.Add(h))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm PriceSeries.At allocated %v per run, want 0", allocs)
	}
}

// TestAcquireWarmAllocFree: a repeat (seed, start) key is a map hit plus
// a move to the most-recently-acquired end.
func TestAcquireWarmAllocFree(t *testing.T) {
	skipUnderRace(t)
	st := NewSnapshotStore(catalog.Default(), 0)
	st.Acquire(1, simclock.Epoch)
	allocs := testing.AllocsPerRun(200, func() {
		st.Acquire(1, simclock.Epoch)
	})
	if allocs != 0 {
		t.Fatalf("warm Acquire allocated %v per run, want 0", allocs)
	}
}

// TestOfferReadsWarmAllocFree: once a market is resolved, every read the
// fleet path makes through its handle — cheapest-AZ price, launch
// probability with an outage list to scan, seasonal hazard, per-AZ
// price series and on-demand price — is a pointer chase and a slice
// index.
func TestOfferReadsWarmAllocFree(t *testing.T) {
	skipUnderRace(t)
	m := New(catalog.Default(), 42, simclock.Epoch)
	m.EnableSeasonality()
	if err := m.InjectOutage("eu-west-1", simclock.Epoch, simclock.Epoch.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	o, ok := m.Offer(catalog.M5XLarge, "us-east-1")
	if !ok {
		t.Fatal("m5.xlarge not offered in us-east-1")
	}
	at := simclock.Epoch.Add(30 * time.Hour)
	o.SpotPrice(at)
	m.LaunchSuccessProbabilityOf(o, at)
	m.SeasonalHazardPerHourOf(o, at)
	o.PriceSeries(1).At(at)
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		p, az := o.SpotPrice(at)
		sink += p + float64(az)
		sink += m.LaunchSuccessProbabilityOf(o, at)
		sink += m.SeasonalHazardPerHourOf(o, at)
		sink += o.PriceSeries(1).At(at)
		sink += o.OnDemandPrice()
		sink += float64(o.PriceStepIndex(at))
	})
	if allocs != 0 {
		t.Fatalf("warm handle reads allocated %v per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("handle reads returned zeros")
	}
}
