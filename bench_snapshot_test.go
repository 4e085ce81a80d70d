package spotverse

import (
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// Cold vs shared market materialisation for the paper's multi-arm
// comparison cells. Each benchmark replays the market footprint one
// figure's strategy arms issue — the baseline-region ranking, the
// Monitor's daily advisor scans, and the Provider's per-launch
// interruption scans — in two modes:
//
//   - cold builds a fresh private market per arm, the pre-snapshot
//     behaviour (every arm regenerates every walk);
//   - shared points all arms at one SnapshotStore snapshot, so the seed
//     materialises once and the remaining arms are pure reads.
//
// Everything runs single-threaded, so shared/cold measures regeneration
// elimination, not parallelism. Run them with `go test -bench`
// alongside the full-figure benchmarks in bench_test.go.

// armFootprint issues one strategy arm's market queries over the
// horizon: one opening-weeks region ranking, a daily advisor scan, and
// a 60-day price-walk scan per offered region (the interruption
// scheduler's read pattern).
func armFootprint(b *testing.B, m *market.Model, days int) {
	b.Helper()
	typ := catalog.M5XLarge
	start := m.Start()
	end := start.Add(time.Duration(days) * 24 * time.Hour)
	if _, _, err := m.CheapestSpotRegion(typ, start, start.Add(14*24*time.Hour)); err != nil {
		b.Fatal(err)
	}
	for at := start; at.Before(end); at = at.Add(24 * time.Hour) {
		if _, err := m.AdvisorSnapshot(typ, at); err != nil {
			b.Fatal(err)
		}
	}
	scanEnd := start.Add(60 * 24 * time.Hour)
	for _, r := range m.Catalog().OfferedRegions(typ) {
		ps, err := m.PriceSeries(typ, m.Catalog().Zones(r)[0])
		if err != nil {
			b.Fatal(err)
		}
		for at := start; at.Before(scanEnd); at = at.Add(market.PriceStep) {
			_ = ps.At(at)
		}
	}
}

// benchSnapshotCell times one figure cell's market work: arms strategy
// arms over a days-long horizon, cold vs shared.
func benchSnapshotCell(b *testing.B, arms, days int) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for a := 0; a < arms; a++ {
				armFootprint(b, market.New(catalog.Default(), benchSeed, simclock.Epoch), days)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh store per iteration: the cell pays one
			// materialisation and arms-1 snapshot hits, exactly what a
			// figure runner sees on a new seed.
			st := market.NewSnapshotStore(catalog.Default(), 0)
			for a := 0; a < arms; a++ {
				armFootprint(b, market.FromSnapshot(st.Acquire(benchSeed, simclock.Epoch)), days)
			}
		}
	})
}

// BenchmarkSnapshotFig7Cell: Fig. 7 builds six envs per seed (two
// workload kinds × three strategies).
func BenchmarkSnapshotFig7Cell(b *testing.B) { benchSnapshotCell(b, 6, 30) }

// BenchmarkSnapshotFig10Cell: Fig. 10's threshold grid runs 18 arms (9
// cells × spotverse + on-demand) against one seed over 90 days.
func BenchmarkSnapshotFig10Cell(b *testing.B) { benchSnapshotCell(b, 18, 90) }

// BenchmarkSnapshotTable4Cell: Table 4 contrasts SpotVerse with the
// SkyPilot-style contender, two arms per seed.
func BenchmarkSnapshotTable4Cell(b *testing.B) { benchSnapshotCell(b, 2, 30) }

// BenchmarkSnapshotAcquire is the store's warm hit path: the cost a
// second arm pays to join an already-materialised seed.
func BenchmarkSnapshotAcquire(b *testing.B) {
	st := market.NewSnapshotStore(catalog.Default(), 0)
	armFootprint(b, market.FromSnapshot(st.Acquire(benchSeed, simclock.Epoch)), 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Acquire(benchSeed, simclock.Epoch)
	}
}
