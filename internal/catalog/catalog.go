// Package catalog defines the static cloud inventory the simulation runs
// against: regions and their availability zones, instance types with their
// hardware specifications, and on-demand price tables.
//
// The inventory mirrors the slice of AWS the SpotVerse paper evaluates on:
// the m5 family in three sizes, c5.2xlarge, r5.2xlarge and p3.2xlarge
// across sixteen commercial regions. Per-region on-demand multipliers and
// reliability tiers are calibrated so the paper's groupings hold (see
// DESIGN.md "Calibration notes"): ca-central-1 is the cheapest m5.xlarge
// spot region, the threshold-4 quartet is globally cheapest but least
// stable, and the threshold-6 quartet is the stable set.
package catalog

import (
	"cmp"
	"fmt"
	"slices"
)

// Region identifies a cloud region, e.g. "ca-central-1".
type Region string

// AZ identifies an availability zone within a region, e.g. "ca-central-1a".
type AZ string

// Region reports the region an AZ belongs to (everything before the final
// one-letter suffix).
func (z AZ) Region() Region {
	if len(z) == 0 {
		return ""
	}
	return Region(z[:len(z)-1])
}

// InstanceType identifies an instance type, e.g. "m5.xlarge".
type InstanceType string

// Family reports the instance family prefix, e.g. "m5".
func (t InstanceType) Family() string {
	for i := 0; i < len(t); i++ {
		if t[i] == '.' {
			return string(t[:i])
		}
	}
	return string(t)
}

// Size reports the size suffix, e.g. "xlarge".
func (t InstanceType) Size() string {
	for i := 0; i < len(t); i++ {
		if t[i] == '.' {
			return string(t[i+1:])
		}
	}
	return ""
}

// InstanceSpec describes an instance type's hardware and base pricing.
type InstanceSpec struct {
	Type InstanceType
	// VCPU is the number of virtual CPUs.
	VCPU int
	// MemoryGiB is the instance memory in GiB.
	MemoryGiB float64
	// GPUs is the number of attached accelerators (p3 family only).
	GPUs int
	// Category is the marketing category, e.g. "general-purpose".
	Category string
	// BaseOnDemandUSD is the us-east-1 on-demand hourly price in USD;
	// other regions apply their multiplier.
	BaseOnDemandUSD float64
}

// ReliabilityTier buckets regions by how hostile their spot markets are in
// the experiment window. It seeds the market model's latent reliability
// walk; actual scores fluctuate around the tier.
type ReliabilityTier int

// Reliability tiers, best first.
const (
	// TierStable regions hold Stability Score ~3 and high SPS
	// (the paper's threshold-6 quartet).
	TierStable ReliabilityTier = iota + 1
	// TierModerate regions hold Stability Score ~2
	// (the threshold-5 quartet).
	TierModerate
	// TierVolatile regions hold Stability Score ~1-2 with the cheapest
	// prices (the threshold-4 quartet).
	TierVolatile
	// TierHostile regions are the interruption-heavy tail.
	TierHostile
)

// RegionInfo describes a region's zones and calibration parameters.
type RegionInfo struct {
	Region Region
	// Zones lists the region's availability zones.
	Zones []AZ
	// PriceMultiplier scales base on-demand prices for this region.
	PriceMultiplier float64
	// SpotDiscount is the region's typical spot price as a fraction of
	// its on-demand price (before market noise).
	SpotDiscount float64
	// Tier seeds the region's latent reliability.
	Tier ReliabilityTier
	// HasP3 reports whether the p3 (GPU) family is offered here; the
	// paper notes several regions lack p3.2xlarge.
	HasP3 bool
	// Continent groups regions for data-transfer pricing.
	Continent string
}

// Catalog is an immutable inventory of regions and instance types.
//
// Every region and instance type has a dense index: its position in the
// name-sorted Regions and InstanceTypes lists. Strings resolve to
// indices once, at the boundary (RegionIndex, TypeIndex); past it,
// availability is a table read (OfferedAt).
//
// The list accessors (Regions, Zones, InstanceTypes, OfferedRegions)
// return slices built once by Default and shared by every caller: they
// are read-only, and a caller that needs to change one copies it first.
type Catalog struct {
	// regions and types hold the records in index order.
	regions   []RegionInfo
	types     []InstanceSpec
	regionIdx map[Region]int
	typeIdx   map[InstanceType]int
	// typeSpotTilt skews a specific (type, region) spot discount so that
	// per-type cheapest regions differ (Table 1 of the paper).
	typeSpotTilt map[InstanceType]map[Region]float64

	sortedRegions []Region
	sortedTypes   []InstanceType
	// offered is the [type][region] availability table, row-major;
	// offeredRegions holds each type's offering regions, sorted.
	offered        []bool
	offeredRegions [][]Region
}

// Default returns the inventory used throughout the reproduction.
func Default() *Catalog {
	c := &Catalog{
		regions:      slices.Clone(defaultRegions),
		types:        slices.Clone(defaultTypes),
		typeSpotTilt: defaultSpotTilt(),
	}
	slices.SortFunc(c.regions, func(a, b RegionInfo) int { return cmp.Compare(a.Region, b.Region) })
	slices.SortFunc(c.types, func(a, b InstanceSpec) int { return cmp.Compare(a.Type, b.Type) })
	// Every shared list is allocated at its exact length, so a caller's
	// append copies instead of writing into another caller's view.
	c.regionIdx = make(map[Region]int, len(c.regions))
	c.sortedRegions = make([]Region, len(c.regions))
	for i, info := range c.regions {
		c.regionIdx[info.Region] = i
		c.sortedRegions[i] = info.Region
	}
	c.typeIdx = make(map[InstanceType]int, len(c.types))
	c.sortedTypes = make([]InstanceType, len(c.types))
	for i, spec := range c.types {
		c.typeIdx[spec.Type] = i
		c.sortedTypes[i] = spec.Type
	}
	c.offered = make([]bool, len(c.types)*len(c.regions))
	c.offeredRegions = make([][]Region, len(c.types))
	for ti, spec := range c.types {
		var offered []Region
		for ri, info := range c.regions {
			if spec.GPUs == 0 || info.HasP3 {
				c.offered[ti*len(c.regions)+ri] = true
				offered = append(offered, info.Region)
			}
		}
		c.offeredRegions[ti] = slices.Clip(offered)
	}
	return c
}

// Regions returns all regions sorted by name; a region's position is its
// index. The slice is shared and read-only.
func (c *Catalog) Regions() []Region { return c.sortedRegions }

// RegionIndex resolves a region to its dense index.
func (c *Catalog) RegionIndex(r Region) (int, bool) {
	i, ok := c.regionIdx[r]
	return i, ok
}

// RegionInfo returns the region record.
func (c *Catalog) RegionInfo(r Region) (RegionInfo, error) {
	i, ok := c.regionIdx[r]
	if !ok {
		return RegionInfo{}, fmt.Errorf("catalog: unknown region %q", r)
	}
	return c.regions[i], nil
}

// Zones returns the availability zones of a region, nil for an unknown
// one. The slice is shared and read-only.
func (c *Catalog) Zones(r Region) []AZ {
	i, ok := c.regionIdx[r]
	if !ok {
		return nil
	}
	return c.regions[i].Zones
}

// InstanceTypes returns all instance types sorted by name; a type's
// position is its index. The slice is shared and read-only.
func (c *Catalog) InstanceTypes() []InstanceType { return c.sortedTypes }

// TypeIndex resolves an instance type to its dense index.
func (c *Catalog) TypeIndex(t InstanceType) (int, bool) {
	i, ok := c.typeIdx[t]
	return i, ok
}

// Spec returns the hardware specification of an instance type.
func (c *Catalog) Spec(t InstanceType) (InstanceSpec, error) {
	i, ok := c.typeIdx[t]
	if !ok {
		return InstanceSpec{}, fmt.Errorf("catalog: unknown instance type %q", t)
	}
	return c.types[i], nil
}

// Offered reports whether the instance type is available in the region.
func (c *Catalog) Offered(t InstanceType, r Region) bool {
	ti, ok := c.typeIdx[t]
	if !ok {
		return false
	}
	ri, ok := c.regionIdx[r]
	return ok && c.OfferedAt(ti, ri)
}

// OfferedAt reports whether the type with index ti is available in the
// region with index ri.
func (c *Catalog) OfferedAt(ti, ri int) bool { return c.offered[ti*len(c.regions)+ri] }

// OfferedRegions returns the regions offering the instance type, sorted,
// and nil for an unknown type. The slice is shared and read-only.
func (c *Catalog) OfferedRegions(t InstanceType) []Region {
	i, ok := c.typeIdx[t]
	if !ok {
		return nil
	}
	return c.offeredRegions[i]
}

// OnDemandPrice returns the hourly on-demand USD price of t in r.
func (c *Catalog) OnDemandPrice(t InstanceType, r Region) (float64, error) {
	spec, err := c.Spec(t)
	if err != nil {
		return 0, err
	}
	info, err := c.RegionInfo(r)
	if err != nil {
		return 0, err
	}
	if !c.Offered(t, r) {
		return 0, fmt.Errorf("catalog: %s not offered in %s", t, r)
	}
	return spec.BaseOnDemandUSD * info.PriceMultiplier, nil
}

// BaselineSpotPrice returns the calibration midpoint for t's spot price in
// r (before market noise): on-demand × region discount × per-type tilt.
func (c *Catalog) BaselineSpotPrice(t InstanceType, r Region) (float64, error) {
	od, err := c.OnDemandPrice(t, r)
	if err != nil {
		return 0, err
	}
	info := c.regions[c.regionIdx[r]]
	tilt := 1.0
	if m, ok := c.typeSpotTilt[t]; ok {
		if v, ok := m[r]; ok {
			tilt = v
		}
	}
	return od * info.SpotDiscount * tilt, nil
}

// CheapestOnDemand returns the region with the lowest on-demand price for
// t among the offered regions, with the price.
func (c *Catalog) CheapestOnDemand(t InstanceType) (Region, float64, error) {
	var (
		best      Region
		bestPrice float64
		found     bool
	)
	for _, r := range c.OfferedRegions(t) {
		p, err := c.OnDemandPrice(t, r)
		if err != nil {
			continue
		}
		if !found || p < bestPrice {
			best, bestPrice, found = r, p, true
		}
	}
	if !found {
		return "", 0, fmt.Errorf("catalog: %s offered nowhere", t)
	}
	return best, bestPrice, nil
}

// CrossContinent reports whether two regions are on different continents
// (used for S3 transfer pricing).
func (c *Catalog) CrossContinent(a, b Region) bool {
	ia, oka := c.regionIdx[a]
	ib, okb := c.regionIdx[b]
	if !oka || !okb {
		return true
	}
	return c.regions[ia].Continent != c.regions[ib].Continent
}

func zones(r Region, n int) []AZ {
	suffixes := []string{"a", "b", "c", "d"}
	out := make([]AZ, 0, n)
	for i := 0; i < n && i < len(suffixes); i++ {
		out = append(out, AZ(string(r)+suffixes[i]))
	}
	return out
}

// Instance types evaluated in the paper (Section 5.2.2, Table 1).
const (
	M5Large   InstanceType = "m5.large"
	M5XLarge  InstanceType = "m5.xlarge"
	M52XLarge InstanceType = "m5.2xlarge"
	C52XLarge InstanceType = "c5.2xlarge"
	R52XLarge InstanceType = "r5.2xlarge"
	P32XLarge InstanceType = "p3.2xlarge"
)

var defaultTypes = []InstanceSpec{
	{Type: M5Large, VCPU: 2, MemoryGiB: 8, Category: "general-purpose", BaseOnDemandUSD: 0.096},
	{Type: M5XLarge, VCPU: 4, MemoryGiB: 16, Category: "general-purpose", BaseOnDemandUSD: 0.192},
	{Type: M52XLarge, VCPU: 8, MemoryGiB: 32, Category: "general-purpose", BaseOnDemandUSD: 0.384},
	{Type: C52XLarge, VCPU: 8, MemoryGiB: 16, Category: "compute-optimized", BaseOnDemandUSD: 0.34},
	{Type: R52XLarge, VCPU: 8, MemoryGiB: 64, Category: "memory-optimized", BaseOnDemandUSD: 0.504},
	{Type: P32XLarge, VCPU: 8, MemoryGiB: 61, GPUs: 1, Category: "gpu-optimized", BaseOnDemandUSD: 3.06},
}

// defaultRegions encodes the calibration described in DESIGN.md:
//
//   - Threshold-6 quartet (stable): us-west-1, ap-northeast-3, eu-west-1,
//     eu-north-1 — reliable, mid prices.
//   - Threshold-5 quartet (moderate): ap-southeast-1, eu-west-3,
//     ca-central-1, eu-west-2. ca-central-1 carries the cheapest m5.xlarge
//     spot price, which is what makes it the paper's tempting-but-risky
//     single-region baseline.
//   - Threshold-4 quartet (volatile, cheapest overall): us-east-1,
//     us-east-2, ap-southeast-2, us-west-2.
//   - Remaining regions fill out the long tail.
var defaultRegions = []RegionInfo{
	// Stable quartet.
	{Region: "us-west-1", Zones: zones("us-west-1", 2), PriceMultiplier: 1.08, SpotDiscount: 0.30, Tier: TierStable, HasP3: false, Continent: "na"},
	{Region: "ap-northeast-3", Zones: zones("ap-northeast-3", 3), PriceMultiplier: 1.10, SpotDiscount: 0.33, Tier: TierStable, HasP3: false, Continent: "ap"},
	{Region: "eu-west-1", Zones: zones("eu-west-1", 3), PriceMultiplier: 1.06, SpotDiscount: 0.31, Tier: TierStable, HasP3: true, Continent: "eu"},
	{Region: "eu-north-1", Zones: zones("eu-north-1", 3), PriceMultiplier: 0.99, SpotDiscount: 0.35, Tier: TierStable, HasP3: false, Continent: "eu"},
	// Moderate quartet.
	{Region: "ap-southeast-1", Zones: zones("ap-southeast-1", 3), PriceMultiplier: 1.10, SpotDiscount: 0.33, Tier: TierModerate, HasP3: true, Continent: "ap"},
	{Region: "eu-west-3", Zones: zones("eu-west-3", 3), PriceMultiplier: 1.08, SpotDiscount: 0.34, Tier: TierModerate, HasP3: false, Continent: "eu"},
	{Region: "ca-central-1", Zones: zones("ca-central-1", 3), PriceMultiplier: 1.04, SpotDiscount: 0.30, Tier: TierModerate, HasP3: false, Continent: "na"},
	{Region: "eu-west-2", Zones: zones("eu-west-2", 3), PriceMultiplier: 1.07, SpotDiscount: 0.34, Tier: TierModerate, HasP3: false, Continent: "eu"},
	// Volatile-but-cheap quartet.
	{Region: "us-east-1", Zones: zones("us-east-1", 4), PriceMultiplier: 1.00, SpotDiscount: 0.28, Tier: TierVolatile, HasP3: true, Continent: "na"},
	{Region: "us-east-2", Zones: zones("us-east-2", 3), PriceMultiplier: 1.00, SpotDiscount: 0.29, Tier: TierVolatile, HasP3: true, Continent: "na"},
	{Region: "ap-southeast-2", Zones: zones("ap-southeast-2", 3), PriceMultiplier: 1.10, SpotDiscount: 0.26, Tier: TierVolatile, HasP3: true, Continent: "ap"},
	{Region: "us-west-2", Zones: zones("us-west-2", 4), PriceMultiplier: 1.00, SpotDiscount: 0.30, Tier: TierVolatile, HasP3: true, Continent: "na"},
	// Tail.
	{Region: "eu-central-1", Zones: zones("eu-central-1", 3), PriceMultiplier: 1.10, SpotDiscount: 0.33, Tier: TierHostile, HasP3: true, Continent: "eu"},
	{Region: "ap-northeast-1", Zones: zones("ap-northeast-1", 3), PriceMultiplier: 1.12, SpotDiscount: 0.33, Tier: TierHostile, HasP3: true, Continent: "ap"},
	{Region: "ap-northeast-2", Zones: zones("ap-northeast-2", 4), PriceMultiplier: 1.08, SpotDiscount: 0.33, Tier: TierHostile, HasP3: false, Continent: "ap"},
	{Region: "sa-east-1", Zones: zones("sa-east-1", 3), PriceMultiplier: 1.35, SpotDiscount: 0.33, Tier: TierHostile, HasP3: false, Continent: "sa"},
}

// defaultSpotTilt skews per-type spot discounts so each instance type's
// cheapest spot region matches Table 1 of the paper:
//
//	m5.large   → us-west-2
//	m5.xlarge  → ca-central-1
//	m5.2xlarge → ap-northeast-3
//	r5.2xlarge → ca-central-1
//	c5.2xlarge → eu-north-1
func defaultSpotTilt() map[InstanceType]map[Region]float64 {
	return map[InstanceType]map[Region]float64{
		M5Large: {
			"us-west-2":    0.74,
			"ca-central-1": 1.05,
		},
		M5XLarge: {
			// ca-central-1 is the cheapest by a slim margin (Table 1):
			// the paper's trap region undercuts both the volatile quartet
			// and the tilted stable regions, which sit only a few percent
			// above it — close enough that reliability decides.
			"ca-central-1":   0.90,
			"us-east-1":      1.02,
			"eu-north-1":     0.82,
			"ap-northeast-3": 0.79,
			"us-west-1":      0.89,
			"eu-west-1":      0.88,
		},
		M52XLarge: {
			"ap-northeast-3": 0.70,
			"ca-central-1":   1.10,
		},
		R52XLarge: {
			"ca-central-1": 0.80,
		},
		C52XLarge: {
			"eu-north-1":   0.75,
			"ca-central-1": 1.08,
		},
	}
}
