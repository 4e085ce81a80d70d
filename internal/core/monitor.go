package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/services/dynamo"
)

// Monitor is SpotVerse's metric-collection component. A CloudWatch rule
// triggers a Lambda collector that snapshots the Spot Instance Advisor
// surface — spot and on-demand prices, Interruption Frequency (surfaced
// as a Stability Score) and Spot Placement Score per region — into a
// DynamoDB table the Optimizer reads. This mirrors the paper's
// SpotInfo-on-Lambda pipeline.
type Monitor struct {
	cfg  Config
	deps Deps

	collections int
	lastGood    []AgedEntry
	// lastGoodVer is the metrics-table write version lastGood was
	// decoded from (0 = none): while the table is unwritten, LatestAged
	// serves lastGood without copying or re-parsing a row.
	lastGoodVer uint64
	ticker      interface{ Stop() }
}

// CollectorFunction is the Lambda the Monitor's CloudWatch rule invokes;
// exported so fault schedules can target it (starving the Optimizer of
// fresh advisor data).
const CollectorFunction = "spotverse-metrics-collector"

func newMonitor(cfg Config, deps Deps) (*Monitor, error) {
	m := &Monitor{cfg: cfg, deps: deps}
	if err := deps.Dynamo.CreateTable(MetricsTable); err != nil && !errors.Is(err, dynamo.ErrTableExists) {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	_, err := deps.Lambda.Register(CollectorFunction, 128, 15*time.Minute, 3*time.Second,
		func(any) error { return m.collect() })
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	if err := deps.CloudWatch.Schedule("metrics-collection", DefaultCollectEvery, func(time.Time) {
		// Errors inside the collector are surfaced through the Lambda
		// runtime's failure counters; collection is best-effort.
		_ = deps.Lambda.Invoke(CollectorFunction, nil, nil)
	}); err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	return m, nil
}

func metricsKey(t catalog.InstanceType, r catalog.Region) string {
	return string(t) + "#" + string(r)
}

// collect snapshots the advisor into DynamoDB (runs inside the Lambda).
func (m *Monitor) collect() error {
	rows, err := m.deps.Market.AdvisorSnapshot(m.cfg.InstanceType, m.deps.Engine.Now())
	if err != nil {
		return fmt.Errorf("monitor collect: %w", err)
	}
	for _, row := range rows {
		item := dynamo.Item{
			Key: metricsKey(row.Type, row.Region),
			Attrs: map[string]string{
				"region":    string(row.Region),
				"type":      string(row.Type),
				"spot":      strconv.FormatFloat(row.SpotPriceUSD, 'g', -1, 64),
				"ondemand":  strconv.FormatFloat(row.OnDemandUSD, 'g', -1, 64),
				"frequency": strconv.FormatFloat(row.InterruptionFrequency, 'g', -1, 64),
				"stability": strconv.Itoa(row.StabilityScore),
				"sps":       strconv.Itoa(row.PlacementScore),
				"collected": m.deps.Engine.Now().Format(time.RFC3339),
			},
		}
		if err := m.deps.Dynamo.Put(MetricsTable, item); err != nil {
			return fmt.Errorf("monitor collect: %w", err)
		}
	}
	m.collections++
	m.deps.CloudWatch.PutMetric("spotverse.collections", float64(m.collections))
	return nil
}

// CollectNow forces a synchronous collection (used before the first
// scheduled tick).
func (m *Monitor) CollectNow() error { return m.collect() }

// crash drops the Monitor's in-memory state on a control-plane restart:
// the degraded-mode cache is gone and the collection count resets, so
// the next LatestAged call re-collects before trusting DynamoDB — a
// cold cache, exactly what a restarted process would have.
func (m *Monitor) crash() {
	m.collections = 0
	m.lastGood = nil
	m.lastGoodVer = 0
}

// Collections reports how many snapshots have been stored.
func (m *Monitor) Collections() int { return m.collections }

// AgedEntry pairs an advisor entry with the instant its snapshot was
// collected, letting the Optimizer discount or discard stale data.
type AgedEntry struct {
	market.AdvisorEntry
	CollectedAt time.Time
}

// LatestAged reads the most recent advisor snapshot for the configured
// instance type back out of DynamoDB, with collection timestamps. If
// nothing has been collected yet it synchronously collects first, so the
// Optimizer never starts blind. In degraded mode — DynamoDB unreachable
// — it serves the last successfully read snapshot instead of failing, so
// a control-plane brownout cannot blind an Optimizer that has ever seen
// data.
//
// Every call makes one billed scan, but rows are decoded only when the
// metrics table was written since the last decode. The returned slice
// is shared with later calls: callers must treat it as read-only.
func (m *Monitor) LatestAged() ([]AgedEntry, error) {
	if m.collections == 0 {
		// A failed first collection with nothing cached: the Scan below
		// may still find rows written by an earlier deployment, so only
		// the Scan outcome is authoritative.
		_ = m.collect()
	}
	items, ver, err := m.deps.Dynamo.ScanSince(MetricsTable, string(m.cfg.InstanceType)+"#", m.lastGoodVer)
	if err != nil {
		if len(m.lastGood) > 0 {
			return m.lastGood, nil
		}
		return nil, fmt.Errorf("monitor latest: %w", err)
	}
	if ver == m.lastGoodVer {
		return m.lastGood, nil
	}
	if len(items) == 0 {
		if len(m.lastGood) > 0 {
			return m.lastGood, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrNoMetrics, m.cfg.InstanceType)
	}
	out := make([]AgedEntry, 0, len(items))
	for _, it := range items {
		e, err := entryFromItem(it)
		if err != nil {
			return nil, fmt.Errorf("monitor latest: %w", err)
		}
		// A missing or malformed timestamp parses to the zero time, i.e.
		// infinitely stale — the conservative reading.
		collected, _ := time.Parse(time.RFC3339, it.Attrs["collected"])
		out = append(out, AgedEntry{AdvisorEntry: e, CollectedAt: collected})
	}
	m.lastGood = out
	m.lastGoodVer = ver
	return out, nil
}

func entryFromItem(it dynamo.Item) (market.AdvisorEntry, error) {
	spot, err := strconv.ParseFloat(it.Attrs["spot"], 64)
	if err != nil {
		return market.AdvisorEntry{}, fmt.Errorf("item %s spot: %w", it.Key, err)
	}
	od, err := strconv.ParseFloat(it.Attrs["ondemand"], 64)
	if err != nil {
		return market.AdvisorEntry{}, fmt.Errorf("item %s ondemand: %w", it.Key, err)
	}
	freq, err := strconv.ParseFloat(it.Attrs["frequency"], 64)
	if err != nil {
		return market.AdvisorEntry{}, fmt.Errorf("item %s frequency: %w", it.Key, err)
	}
	stability, err := strconv.Atoi(it.Attrs["stability"])
	if err != nil {
		return market.AdvisorEntry{}, fmt.Errorf("item %s stability: %w", it.Key, err)
	}
	sps, err := strconv.Atoi(it.Attrs["sps"])
	if err != nil {
		return market.AdvisorEntry{}, fmt.Errorf("item %s sps: %w", it.Key, err)
	}
	return market.AdvisorEntry{
		Region:                catalog.Region(it.Attrs["region"]),
		Type:                  catalog.InstanceType(it.Attrs["type"]),
		SpotPriceUSD:          spot,
		OnDemandUSD:           od,
		SavingsOverOnDemand:   1 - spot/od,
		InterruptionFrequency: freq,
		StabilityScore:        stability,
		PlacementScore:        sps,
		CombinedScore:         stability + sps,
	}, nil
}
