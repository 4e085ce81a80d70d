package experiment

import (
	"sync/atomic"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
)

// Market snapshot sharing. Every comparison figure contrasts strategy
// arms on the same market realization, so each (seed, start)
// materialises its series once in a shared market.Snapshot and every
// Env built for that key — across arms, ForEach workers, and
// experiments in the -exp all sweep — reads it concurrently. Outputs do
// not depend on the store's size: snapshot values depend only on (seed,
// stream, step), never on sharing, dropping, or query interleaving.

// DefaultMarketCacheSegments is the default snapshot-store high-water
// mark: 8192 segments × 2 KiB ≈ 16 MiB of resident market series,
// roughly a dozen fully-materialised 90-day seeds.
const DefaultMarketCacheSegments = 8192

var mktStore atomic.Pointer[market.SnapshotStore]

func init() { SetMarketCache(DefaultMarketCacheSegments) }

// SetMarketCache replaces the shared market-snapshot store with an
// empty one whose high-water mark is the given segment count (<= 0
// leaves it unbounded). Environments built afterwards materialise their
// markets cold.
func SetMarketCache(segments int) {
	mktStore.Store(market.NewSnapshotStore(catalog.Default(), segments))
}

// acquireMarket returns a model view over the shared snapshot for
// (seed, start).
func acquireMarket(seed int64, start time.Time) *market.Model {
	return market.FromSnapshot(mktStore.Load().Acquire(seed, start))
}
