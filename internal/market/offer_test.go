package market

import (
	"math"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/simclock"
)

// TestStringAPIErrorTexts pins the text and precedence of every error the
// string-keyed Model API returns for a market that does not exist: an
// unknown region, an unknown type, p3 in a region without it, an AZ the
// catalog does not list, and both unknowns at once. Strategies, serve and
// the figures surface these texts, so resolving markets through a dense
// table must not change which check fires first.
func TestStringAPIErrorTexts(t *testing.T) {
	m := New(catalog.Default(), 42, simclock.Epoch)
	at := simclock.Epoch
	to := at.Add(time.Hour)
	type query struct {
		name string
		call func(catalog.InstanceType, catalog.Region, catalog.AZ) error
	}
	queries := []query{
		{"SpotPrice", func(t catalog.InstanceType, _ catalog.Region, az catalog.AZ) error {
			_, err := m.SpotPrice(t, az, at)
			return err
		}},
		{"PriceSeries", func(t catalog.InstanceType, _ catalog.Region, az catalog.AZ) error {
			_, err := m.PriceSeries(t, az)
			return err
		}},
		{"PriceHistory", func(t catalog.InstanceType, _ catalog.Region, az catalog.AZ) error {
			_, err := m.PriceHistory(t, az, at, to, 0)
			return err
		}},
		{"RegionSpotPrice", func(t catalog.InstanceType, r catalog.Region, _ catalog.AZ) error {
			_, _, err := m.RegionSpotPrice(t, r, at)
			return err
		}},
		{"InterruptionFrequency", func(t catalog.InstanceType, r catalog.Region, _ catalog.AZ) error {
			_, err := m.InterruptionFrequency(t, r, at)
			return err
		}},
		{"PlacementScoreLatent", func(t catalog.InstanceType, r catalog.Region, _ catalog.AZ) error {
			_, err := m.PlacementScoreLatent(t, r, at)
			return err
		}},
		{"LaunchSuccessProbability", func(t catalog.InstanceType, r catalog.Region, _ catalog.AZ) error {
			_, err := m.LaunchSuccessProbability(t, r, at)
			return err
		}},
		{"SeasonalHazardPerHour", func(t catalog.InstanceType, r catalog.Region, _ catalog.AZ) error {
			_, err := m.SeasonalHazardPerHour(t, r, at)
			return err
		}},
		{"CombinedScore", func(t catalog.InstanceType, r catalog.Region, _ catalog.AZ) error {
			_, err := m.CombinedScore(t, r, at)
			return err
		}},
		{"AveragePrice", func(t catalog.InstanceType, r catalog.Region, _ catalog.AZ) error {
			_, err := m.AveragePrice(t, r, at, to)
			return err
		}},
		{"Advisor", func(t catalog.InstanceType, r catalog.Region, _ catalog.AZ) error {
			_, err := m.Advisor(t, r, at)
			return err
		}},
		{"CheapestSpotRegion", func(t catalog.InstanceType, _ catalog.Region, _ catalog.AZ) error {
			_, _, err := m.CheapestSpotRegion(t, at, to)
			return err
		}},
		{"AdvisorSnapshot", func(t catalog.InstanceType, _ catalog.Region, _ catalog.AZ) error {
			_, err := m.AdvisorSnapshot(t, at)
			return err
		}},
	}
	const (
		unknownRegion = `catalog: unknown region "mars-1"`
		unknownType   = `catalog: unknown instance type "m9.huge"`
		nil_          = "<nil>"
	)
	cases := []struct {
		label string
		t     catalog.InstanceType
		r     catalog.Region
		az    catalog.AZ
		want  map[string]string
	}{
		{"unknown region", "m5.xlarge", "mars-1", "mars-1a", map[string]string{
			"SpotPrice": unknownRegion, "PriceSeries": unknownRegion, "PriceHistory": unknownRegion,
			"RegionSpotPrice":       "market: m5.xlarge not offered in mars-1",
			"InterruptionFrequency": unknownRegion, "PlacementScoreLatent": unknownRegion,
			"LaunchSuccessProbability": unknownRegion, "SeasonalHazardPerHour": unknownRegion,
			"CombinedScore":      unknownRegion,
			"AveragePrice":       "market: m5.xlarge not offered in mars-1",
			"Advisor":            "market: m5.xlarge not offered in mars-1",
			"CheapestSpotRegion": nil_, "AdvisorSnapshot": nil_,
		}},
		{"unknown type", "m9.huge", "us-east-1", "us-east-1a", map[string]string{
			"SpotPrice": unknownType, "PriceSeries": unknownType, "PriceHistory": unknownType,
			"RegionSpotPrice":          "market: m9.huge not offered in us-east-1",
			"InterruptionFrequency":    "market: m9.huge not offered in us-east-1",
			"PlacementScoreLatent":     "market: m9.huge not offered in us-east-1",
			"LaunchSuccessProbability": "market: m9.huge not offered in us-east-1",
			"SeasonalHazardPerHour":    "market: m9.huge not offered in us-east-1",
			"CombinedScore":            "market: m9.huge not offered in us-east-1",
			"AveragePrice":             "market: m9.huge not offered in us-east-1",
			"Advisor":                  "market: m9.huge not offered in us-east-1",
			"CheapestSpotRegion":       "market: m9.huge offered nowhere",
			"AdvisorSnapshot":          nil_,
		}},
		{"p3 where unoffered", "p3.2xlarge", "eu-north-1", "eu-north-1a", map[string]string{
			"SpotPrice":                "catalog: p3.2xlarge not offered in eu-north-1",
			"PriceSeries":              "catalog: p3.2xlarge not offered in eu-north-1",
			"PriceHistory":             "catalog: p3.2xlarge not offered in eu-north-1",
			"RegionSpotPrice":          "market: p3.2xlarge not offered in eu-north-1",
			"InterruptionFrequency":    "market: p3.2xlarge not offered in eu-north-1",
			"PlacementScoreLatent":     "market: p3.2xlarge not offered in eu-north-1",
			"LaunchSuccessProbability": "market: p3.2xlarge not offered in eu-north-1",
			"SeasonalHazardPerHour":    "market: p3.2xlarge not offered in eu-north-1",
			"CombinedScore":            "market: p3.2xlarge not offered in eu-north-1",
			"AveragePrice":             "market: p3.2xlarge not offered in eu-north-1",
			"Advisor":                  "market: p3.2xlarge not offered in eu-north-1",
			"CheapestSpotRegion":       nil_, "AdvisorSnapshot": nil_,
		}},
		{"unlisted AZ", "m5.xlarge", "us-east-1", "us-east-1z", map[string]string{
			"SpotPrice":       "market: m5.xlarge not offered in us-east-1",
			"PriceSeries":     "market: m5.xlarge not offered in us-east-1",
			"PriceHistory":    "market: m5.xlarge not offered in us-east-1",
			"RegionSpotPrice": nil_, "InterruptionFrequency": nil_, "PlacementScoreLatent": nil_,
			"LaunchSuccessProbability": nil_, "SeasonalHazardPerHour": nil_, "CombinedScore": nil_,
			"AveragePrice": nil_, "Advisor": nil_, "CheapestSpotRegion": nil_, "AdvisorSnapshot": nil_,
		}},
		{"unknown type and region", "m9.huge", "mars-1", "mars-1a", map[string]string{
			"SpotPrice": unknownType, "PriceSeries": unknownType, "PriceHistory": unknownType,
			"RegionSpotPrice":       "market: m9.huge not offered in mars-1",
			"InterruptionFrequency": unknownRegion, "PlacementScoreLatent": unknownRegion,
			"LaunchSuccessProbability": unknownRegion, "SeasonalHazardPerHour": unknownRegion,
			"CombinedScore":      unknownRegion,
			"AveragePrice":       "market: m9.huge not offered in mars-1",
			"Advisor":            "market: m9.huge not offered in mars-1",
			"CheapestSpotRegion": "market: m9.huge offered nowhere",
			"AdvisorSnapshot":    nil_,
		}},
	}
	for _, c := range cases {
		for _, q := range queries {
			got := nil_
			if err := q.call(c.t, c.r, c.az); err != nil {
				got = err.Error()
			}
			if want := c.want[q.name]; got != want {
				t.Errorf("%s: %s(%s, %s/%s) = %q, want %q", c.label, q.name, c.t, c.r, c.az, got, want)
			}
		}
	}

	// Checks that come before the market lookup keep their place.
	if _, err := m.PriceHistory("m9.huge", "mars-1a", to, at, 0); err == nil || err.Error() != "market: history to "+at.String()+" before from "+to.String() {
		t.Errorf("PriceHistory reversed window on an unknown market: %v", err)
	}
	if _, err := m.AveragePrice("m5.xlarge", "us-east-1", to, at); err == nil || err.Error() != "market: empty averaging window" {
		t.Errorf("AveragePrice reversed window: %v", err)
	}
	if _, err := m.AveragePrice("m5.xlarge", "mars-1", to, at); err == nil || err.Error() != "market: m5.xlarge not offered in mars-1" {
		t.Errorf("AveragePrice reversed window on an unknown region: %v", err)
	}
	// An outage answers before the market is resolved.
	if err := m.InjectOutage("us-east-1", at, to); err != nil {
		t.Fatal(err)
	}
	if p, err := m.LaunchSuccessProbability("m9.huge", "us-east-1", at); p != 0 || err != nil {
		t.Errorf("LaunchSuccessProbability of an unknown type in an outage = %v, %v; want 0, nil", p, err)
	}
}

// TestOfferHandleMatchesStringAPI is the differential test of the
// resolved-market handle: for every offered (type, region, AZ), at
// instants that clamp before the start, straddle segment edges (price
// and metric steps 255 and 256) and fall inside and outside peak hours
// and an injected outage, each handle read equals the string-keyed
// query it stands for, bit for bit.
func TestOfferHandleMatchesStringAPI(t *testing.T) {
	cat := catalog.Default()
	m := New(cat, 42, simclock.Epoch)
	m.EnableSeasonality()
	outageFrom, outageTo := simclock.Epoch.Add(3*time.Hour), simclock.Epoch.Add(50*time.Hour)
	if err := m.InjectOutage("us-east-1", outageFrom, outageTo); err != nil {
		t.Fatal(err)
	}
	var grid []time.Time
	for _, d := range []time.Duration{-7 * time.Hour, -time.Nanosecond, 0, 15 * time.Hour, 23 * time.Hour, 49 * time.Hour, 50 * time.Hour, 130 * time.Hour} {
		grid = append(grid, simclock.Epoch.Add(d))
	}
	for _, step := range []time.Duration{PriceStep, MetricStep} {
		for _, k := range []int{255, 256} {
			edge := simclock.Epoch.Add(time.Duration(k) * step)
			grid = append(grid, edge.Add(-time.Nanosecond), edge, edge.Add(step/2))
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	offers := 0
	for _, typ := range cat.InstanceTypes() {
		for _, r := range cat.Regions() {
			o, ok := m.Offer(typ, r)
			if ok != cat.Offered(typ, r) {
				t.Fatalf("Offer(%s, %s) ok = %v, catalog says %v", typ, r, ok, cat.Offered(typ, r))
			}
			if !ok {
				continue
			}
			offers++
			label := string(typ) + "/" + string(r)
			ri, _ := cat.RegionIndex(r)
			od, _ := cat.OnDemandPrice(typ, r)
			if o.Type() != typ || o.Region() != r || o.RegionIndex() != ri || !same(o.OnDemandPrice(), od) {
				t.Fatalf("%s: handle names %s/%s (index %d, on-demand %v)", label, o.Type(), o.Region(), o.RegionIndex(), o.OnDemandPrice())
			}
			zones := cat.Zones(r)
			if o.NumZones() != len(zones) {
				t.Fatalf("%s: %d zones, catalog lists %d", label, o.NumZones(), len(zones))
			}
			for i, az := range zones {
				if o.Zone(i) != az {
					t.Fatalf("%s: zone %d is %s, catalog lists %s", label, i, o.Zone(i), az)
				}
			}
			for _, at := range grid {
				price, azi := o.SpotPrice(at)
				wantPrice, wantAZ, err := m.RegionSpotPrice(typ, r, at)
				if err != nil {
					t.Fatal(err)
				}
				if !same(price, wantPrice) || o.Zone(azi) != wantAZ {
					t.Fatalf("%s at %v: handle %v in %s, RegionSpotPrice %v in %s", label, at, price, o.Zone(azi), wantPrice, wantAZ)
				}
				// Both read the cheapest-AZ series; a scan of the zones'
				// own prices is the independent reference.
				scanAZ := -1
				var scanPrice float64
				for i, az := range zones {
					p, err := m.SpotPrice(typ, az, at)
					if err != nil {
						t.Fatal(err)
					}
					if scanAZ < 0 || p < scanPrice {
						scanAZ, scanPrice = i, p
					}
				}
				if !same(price, scanPrice) || azi != scanAZ {
					t.Fatalf("%s at %v: handle %v in zone %d, zone scan %v in zone %d", label, at, price, azi, scanPrice, scanAZ)
				}
				if step := o.PriceStepIndex(at); step != max(int(at.Sub(simclock.Epoch)/PriceStep), 0) {
					t.Fatalf("%s at %v: price step %d", label, at, step)
				}
				p, err := m.LaunchSuccessProbability(typ, r, at)
				if err != nil {
					t.Fatal(err)
				}
				if got := m.LaunchSuccessProbabilityOf(o, at); !same(got, p) {
					t.Fatalf("%s at %v: launch probability %v, string API %v", label, at, got, p)
				}
				h, err := m.SeasonalHazardPerHour(typ, r, at)
				if err != nil {
					t.Fatal(err)
				}
				if got := m.SeasonalHazardPerHourOf(o, at); !same(got, h) {
					t.Fatalf("%s at %v: seasonal hazard %v, string API %v", label, at, got, h)
				}
				for i, az := range zones {
					want, err := m.SpotPrice(typ, az, at)
					if err != nil {
						t.Fatal(err)
					}
					if got := o.PriceSeries(i).At(at); !same(got, want) {
						t.Fatalf("%s at %v: %s series %v, SpotPrice %v", label, at, az, got, want)
					}
				}
			}
		}
	}
	if offers != 16*5+8 {
		t.Fatalf("%d offers, want 88: five types in all 16 regions, p3 in 8", offers)
	}
	// The outage answers through the handle too.
	o, _ := m.Offer(catalog.M5XLarge, "us-east-1")
	if p := m.LaunchSuccessProbabilityOf(o, outageFrom); p != 0 {
		t.Fatalf("launch probability inside the outage = %v, want 0", p)
	}
	if p := m.LaunchSuccessProbabilityOf(o, outageTo); p == 0 {
		t.Fatal("launch probability at the outage end = 0, want the market's")
	}
	// Views over one snapshot share its handles.
	if o2, _ := FromSnapshot(m.Snapshot()).Offer(catalog.M5XLarge, "us-east-1"); o2 != o {
		t.Fatal("two views over one snapshot resolve different handles")
	}
}
