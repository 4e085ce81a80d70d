package catalog

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDefaultInventoryShape(t *testing.T) {
	c := Default()
	if got := len(c.Regions()); got != 16 {
		t.Fatalf("regions = %d, want 16", got)
	}
	if got := len(c.InstanceTypes()); got != 6 {
		t.Fatalf("types = %d, want 6", got)
	}
}

// TestSharedListsContract pins what the list accessors promise: the
// same contents a fresh recomputation from the inventory gives, in one
// backing array built by Default, so a call never allocates.
func TestSharedListsContract(t *testing.T) {
	c := Default()
	var all []Region
	for _, info := range defaultRegions {
		all = append(all, info.Region)
	}
	slices.Sort(all)
	if got := c.Regions(); len(got) != 16 || !slices.Equal(got, all) {
		t.Fatalf("Regions() = %v, want the 16 inventory regions sorted: %v", got, all)
	}
	same := func(a, b []Region) bool { return len(a) > 0 && &a[0] == &b[0] }
	if !same(c.Regions(), c.Regions()) {
		t.Fatal("Regions() returns a new backing array per call")
	}
	for _, typ := range c.InstanceTypes() {
		var want []Region
		for _, r := range all {
			if c.Offered(typ, r) {
				want = append(want, r)
			}
		}
		got := c.OfferedRegions(typ)
		if !slices.Equal(got, want) {
			t.Errorf("OfferedRegions(%s) = %v, want %v", typ, got, want)
		}
		if !same(got, c.OfferedRegions(typ)) {
			t.Errorf("OfferedRegions(%s) returns a new backing array per call", typ)
		}
	}
	if got := c.OfferedRegions("z9.nano"); got != nil {
		t.Errorf("OfferedRegions of an unknown type = %v, want nil", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = c.Regions()
		_ = c.OfferedRegions(M5XLarge)
		_ = c.OfferedRegions(P32XLarge)
	})
	if allocs != 0 {
		t.Errorf("Regions and OfferedRegions allocate %v times per call, want 0", allocs)
	}
}

func TestZonesBelongToRegion(t *testing.T) {
	c := Default()
	for _, r := range c.Regions() {
		zs := c.Zones(r)
		if len(zs) < 2 {
			t.Fatalf("region %s has %d zones, want >= 2", r, len(zs))
		}
		for _, z := range zs {
			if z.Region() != r {
				t.Fatalf("zone %s maps to region %s, want %s", z, z.Region(), r)
			}
		}
	}
}

func TestInstanceTypeParsing(t *testing.T) {
	if M5XLarge.Family() != "m5" || M5XLarge.Size() != "xlarge" {
		t.Fatalf("family/size = %s/%s", M5XLarge.Family(), M5XLarge.Size())
	}
	bare := InstanceType("weird")
	if bare.Family() != "weird" || bare.Size() != "" {
		t.Fatalf("bare parse = %s/%s", bare.Family(), bare.Size())
	}
}

func TestOnDemandPricing(t *testing.T) {
	c := Default()
	base, err := c.OnDemandPrice(M5XLarge, "us-east-1")
	if err != nil {
		t.Fatal(err)
	}
	if base != 0.192 {
		t.Fatalf("us-east-1 m5.xlarge = %v, want 0.192", base)
	}
	ca, err := c.OnDemandPrice(M5XLarge, "ca-central-1")
	if err != nil {
		t.Fatal(err)
	}
	if ca <= base {
		t.Fatalf("ca-central-1 %v should be pricier than us-east-1 %v", ca, base)
	}
	if _, err := c.OnDemandPrice(M5XLarge, "narnia-1"); err == nil {
		t.Fatal("unknown region should error")
	}
	if _, err := c.OnDemandPrice("z9.nano", "us-east-1"); err == nil {
		t.Fatal("unknown type should error")
	}
}

func TestBaselineSpotBelowOnDemand(t *testing.T) {
	c := Default()
	for _, tp := range c.InstanceTypes() {
		for _, r := range c.OfferedRegions(tp) {
			spot, err := c.BaselineSpotPrice(tp, r)
			if err != nil {
				t.Fatal(err)
			}
			od, err := c.OnDemandPrice(tp, r)
			if err != nil {
				t.Fatal(err)
			}
			if spot <= 0 || spot >= od {
				t.Fatalf("%s/%s: spot %v not in (0, od %v)", tp, r, spot, od)
			}
		}
	}
}

func TestP3Availability(t *testing.T) {
	c := Default()
	if c.Offered(P32XLarge, "ca-central-1") {
		t.Fatal("p3 should be unavailable in ca-central-1")
	}
	if !c.Offered(P32XLarge, "us-east-1") {
		t.Fatal("p3 should be available in us-east-1")
	}
	offered := c.OfferedRegions(P32XLarge)
	if len(offered) == 0 || len(offered) >= len(c.Regions()) {
		t.Fatalf("p3 offered in %d regions", len(offered))
	}
	if _, err := c.BaselineSpotPrice(P32XLarge, "ca-central-1"); err == nil {
		t.Fatal("baseline price in unoffered region should error")
	}
}

func TestCheapestOnDemand(t *testing.T) {
	c := Default()
	r, price, err := c.CheapestOnDemand(M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range c.OfferedRegions(M5XLarge) {
		p, err := c.OnDemandPrice(M5XLarge, other)
		if err != nil {
			t.Fatal(err)
		}
		if p < price {
			t.Fatalf("cheapest reported %s@%v but %s@%v is lower", r, price, other, p)
		}
	}
	if _, _, err := c.CheapestOnDemand("z9.nano"); err == nil {
		t.Fatal("unknown type should error")
	}
}

func TestCrossContinent(t *testing.T) {
	c := Default()
	if c.CrossContinent("us-east-1", "ca-central-1") {
		t.Fatal("both are NA")
	}
	if !c.CrossContinent("us-east-1", "eu-north-1") {
		t.Fatal("NA vs EU is cross-continent")
	}
	if !c.CrossContinent("us-east-1", "mars-1") {
		t.Fatal("unknown regions should be treated as cross-continent")
	}
}

func TestTiersCoverCalibrationQuartets(t *testing.T) {
	c := Default()
	want := map[ReliabilityTier][]Region{
		TierStable:   {"us-west-1", "ap-northeast-3", "eu-west-1", "eu-north-1"},
		TierModerate: {"ap-southeast-1", "eu-west-3", "ca-central-1", "eu-west-2"},
		TierVolatile: {"us-east-1", "us-east-2", "ap-southeast-2", "us-west-2"},
	}
	for tier, regions := range want {
		for _, r := range regions {
			info, err := c.RegionInfo(r)
			if err != nil {
				t.Fatal(err)
			}
			if info.Tier != tier {
				t.Fatalf("%s tier = %v, want %v", r, info.Tier, tier)
			}
		}
	}
}

func TestAZRegionProperty(t *testing.T) {
	f := func(suffix uint8) bool {
		r := Region("us-test-1")
		z := AZ(string(r) + string(rune('a'+suffix%4)))
		return z.Region() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if AZ("").Region() != "" {
		t.Fatal("empty AZ region")
	}
}
