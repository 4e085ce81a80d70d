package experiment

import (
	"testing"

	"spotverse/internal/simclock"
)

// TestEnvsShareSnapshot pins the store wiring: two environments for the
// same (seed, start) read one market snapshot through separate Models.
func TestEnvsShareSnapshot(t *testing.T) {
	SetMarketCache(DefaultMarketCacheSegments)

	a := NewEnv(42)
	b := NewEnv(42)
	if a.Market == b.Market {
		t.Fatal("Models must stay per-env even when the snapshot is shared")
	}
	if a.Market.Snapshot() != b.Market.Snapshot() {
		t.Fatal("same-seed envs should share one snapshot")
	}
	if c := NewEnv(43); c.Market.Snapshot() == a.Market.Snapshot() {
		t.Fatal("different seeds must not share a snapshot")
	}
	if d := NewEnvAt(42, simclock.Epoch.Add(1)); d.Market.Snapshot() == a.Market.Snapshot() {
		t.Fatal("different starts must not share a snapshot")
	}
}
