package baselines

import (
	"errors"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

func testMarket(seed int64) (*simclock.Engine, *market.Model) {
	eng := simclock.NewEngine()
	return eng, market.New(catalog.Default(), seed, simclock.Epoch)
}

func TestSingleRegionPlacesEverythingThere(t *testing.T) {
	cat := catalog.Default()
	s, err := NewSingleRegion(cat, catalog.M5XLarge, "ca-central-1")
	if err != nil {
		t.Fatal(err)
	}
	placements, err := s.PlaceInitial([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range placements {
		if p.Region != "ca-central-1" || p.Lifecycle != cloud.LifecycleSpot {
			t.Fatalf("%s: %+v", id, p)
		}
	}
	var got strategy.Placement
	if err := s.OnInterrupted("a", "ca-central-1", func(p strategy.Placement) { got = p }); err != nil {
		t.Fatal(err)
	}
	if got.Region != "ca-central-1" {
		t.Fatalf("relaunched in %s", got.Region)
	}
}

func TestSingleRegionValidates(t *testing.T) {
	cat := catalog.Default()
	if _, err := NewSingleRegion(cat, catalog.P32XLarge, "ca-central-1"); !errors.Is(err, ErrNotOffered) {
		t.Fatalf("err = %v", err)
	}
}

func TestOnDemandPicksCheapestRegion(t *testing.T) {
	cat := catalog.Default()
	s, err := NewOnDemand(cat, catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	wantRegion, _, err := cat.CheapestOnDemand(catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	if s.Region() != wantRegion {
		t.Fatalf("region = %s, want %s", s.Region(), wantRegion)
	}
	placements, _ := s.PlaceInitial([]string{"a"})
	if placements["a"].Lifecycle != cloud.LifecycleOnDemand {
		t.Fatalf("placement = %+v", placements["a"])
	}
}

func TestSkyPilotChasesCheapestPrice(t *testing.T) {
	eng, mkt := testMarket(3)
	s, err := NewSkyPilotLike(eng, mkt, catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	placements, err := s.PlaceInitial([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	chosen := placements["a"].Region
	// Verify it is the global price argmin right now.
	for _, r := range mkt.Catalog().OfferedRegions(catalog.M5XLarge) {
		p, _, err := mkt.RegionSpotPrice(catalog.M5XLarge, r, eng.Now())
		if err != nil {
			t.Fatal(err)
		}
		pc, _, _ := mkt.RegionSpotPrice(catalog.M5XLarge, chosen, eng.Now())
		if p < pc {
			t.Fatalf("chose %s but %s is cheaper (%v < %v)", chosen, r, p, pc)
		}
	}
	// ca-central-1 carries the lowest baseline m5.xlarge price, so the
	// broker should walk straight into the paper's trap.
	if chosen != "ca-central-1" {
		t.Logf("note: cheapest at epoch is %s (market noise)", chosen)
	}
	var re strategy.Placement
	if err := s.OnInterrupted("a", chosen, func(p strategy.Placement) { re = p }); err != nil {
		t.Fatal(err)
	}
	if re.Lifecycle != cloud.LifecycleSpot {
		t.Fatalf("relaunch = %+v", re)
	}
}

func TestNaiveMultiRegionRoundRobin(t *testing.T) {
	cat := catalog.Default()
	regions := []catalog.Region{"ap-northeast-3", "ca-central-1", "eu-north-1"}
	s, err := NewNaiveMultiRegion(cat, catalog.M5XLarge, regions, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"w0", "w1", "w2", "w3", "w4", "w5"}
	placements, err := s.PlaceInitial(ids)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[catalog.Region]int{}
	for _, p := range placements {
		counts[p.Region]++
	}
	for _, r := range regions {
		if counts[r] != 2 {
			t.Fatalf("counts = %v", counts)
		}
	}
	// Relaunch always lands inside the fixed set.
	for i := 0; i < 30; i++ {
		var got strategy.Placement
		_ = s.OnInterrupted("w0", "ca-central-1", func(p strategy.Placement) { got = p })
		found := false
		for _, r := range regions {
			if got.Region == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("relaunched outside the set: %s", got.Region)
		}
	}
}

func TestNaiveMultiRegionValidates(t *testing.T) {
	cat := catalog.Default()
	if _, err := NewNaiveMultiRegion(cat, catalog.M5XLarge, nil, 1); !errors.Is(err, ErrNoRegions) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewNaiveMultiRegion(cat, catalog.P32XLarge, []catalog.Region{"ca-central-1"}, 1); !errors.Is(err, ErrNotOffered) {
		t.Fatalf("err = %v", err)
	}
}

// TestSkyPilotMemoMatchesScan: the per-price-step memo answers exactly
// what a scan of every offering region answers, first strictly lowest
// price in region order, at instants 37 minutes apart across four price
// steps, on step boundaries, before the market start, and out of order.
func TestSkyPilotMemoMatchesScan(t *testing.T) {
	for _, typ := range []catalog.InstanceType{catalog.M5XLarge, catalog.P32XLarge} {
		eng, mkt := testMarket(11)
		s, err := NewSkyPilotLike(eng, mkt, typ)
		if err != nil {
			t.Fatal(err)
		}
		scan := func(at time.Time) catalog.Region {
			var (
				best      catalog.Region
				bestPrice float64
			)
			for i, r := range mkt.Catalog().OfferedRegions(typ) {
				p, _, err := mkt.RegionSpotPrice(typ, r, at)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 || p < bestPrice {
					best, bestPrice = r, p
				}
			}
			return best
		}
		var instants []time.Time
		for d := time.Duration(0); d <= 4*market.PriceStep; d += 37 * time.Minute {
			instants = append(instants, simclock.Epoch.Add(d))
		}
		for k := 0; k <= 4; k++ {
			boundary := simclock.Epoch.Add(time.Duration(k) * market.PriceStep)
			instants = append(instants, boundary, boundary.Add(-time.Nanosecond), boundary)
		}
		instants = append(instants,
			simclock.Epoch.Add(-time.Hour),
			simclock.Epoch.Add(3*market.PriceStep+time.Minute),
			simclock.Epoch.Add(-37*time.Minute),
			simclock.Epoch.Add(market.PriceStep+2*time.Hour),
			simclock.Epoch.Add(40*market.PriceStep),
			simclock.Epoch.Add(2*market.PriceStep),
		)
		changes, last := 0, catalog.Region("")
		for _, at := range instants {
			got, err := s.cheapestAt(at)
			if err != nil {
				t.Fatal(err)
			}
			if want := scan(at); got != want {
				t.Fatalf("%s at %v: memoised %s, scan %s", typ, at, got, want)
			}
			if got != last {
				changes++
				last = got
			}
		}
		t.Logf("%s: %d instants, cheapest region changed %d times", typ, len(instants), changes)
	}
}
