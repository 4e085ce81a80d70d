package cloud

import (
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// TestSeasonalInterruptionRates verifies that with seasonality enabled,
// instances launched during weekday business hours get reclaimed faster
// than instances launched on the weekend.
func TestSeasonalInterruptionRates(t *testing.T) {
	survival := func(launchOffset time.Duration) float64 {
		eng := simclock.NewEngineAt(simclock.Epoch)
		mkt := market.New(catalog.Default(), 7, simclock.Epoch)
		mkt.EnableSeasonality()
		p := New(eng, mkt, 7)
		_ = eng.RunFor(launchOffset)
		const n = 300
		for i := 0; i < n; i++ {
			if _, err := p.RequestSpot(catalog.M5XLarge, "ca-central-1", "w"); err != nil {
				t.Fatal(err)
			}
		}
		launched := 0
		p.OnLaunch(func(*Instance) { launched++ })
		sweep := eng.Every(15*time.Minute, "sweep", func(time.Time) { p.EvaluateOpenRequests() })
		defer sweep.Stop()
		_ = eng.RunFor(6 * time.Hour)
		running := len(p.RunningInstances())
		if launched < n*8/10 {
			t.Fatalf("only %d/%d launched", launched, n)
		}
		return float64(running) / float64(launched)
	}
	// Epoch is Monday 00:00 UTC: 15h offset lands in Monday's business
	// peak; 5 days + 15h lands on Saturday afternoon (off-peak).
	peakSurvival := survival(15 * time.Hour)
	weekendSurvival := survival(5*24*time.Hour + 15*time.Hour)
	if peakSurvival >= weekendSurvival {
		t.Fatalf("peak survival %v >= weekend %v; seasonality not biting", peakSurvival, weekendSurvival)
	}
}
