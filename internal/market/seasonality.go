package market

import (
	"time"

	"spotverse/internal/catalog"
)

// The paper's future-work section observes that interruption rates vary
// by day and time of week. This file adds an opt-in hour-of-week
// seasonality to the interruption hazard: spot reclaims concentrate in
// weekday business hours (when on-demand demand peaks), quieten on
// weekends. The profile is mean-one so the calibrated averages — and
// therefore the published experiment numbers — are unchanged when
// seasonality is off, and comparable when it is on.

// Seasonality profile constants.
const (
	// peakFactor multiplies the hazard during weekday business hours.
	peakFactor = 1.6
	// peakStartHour and peakEndHour bound the UTC business window.
	peakStartHour = 14
	peakEndHour   = 22
)

// offPeakFactor keeps the weekly mean at 1:
// 40 peak hours/week at peakFactor, 128 off-peak at offPeakFactor.
var offPeakFactor = (168.0 - 40.0*peakFactor) / 128.0

// EnableSeasonality turns on hour-of-week hazard modulation.
func (m *Model) EnableSeasonality() { m.seasonal = true }

// SeasonalityEnabled reports whether modulation is active.
func (m *Model) SeasonalityEnabled() bool { return m.seasonal }

// SeasonalFactor returns the hazard multiplier at the given instant: 1
// when seasonality is disabled.
func (m *Model) SeasonalFactor(at time.Time) float64 {
	if !m.seasonal {
		return 1
	}
	return HourOfWeekFactor(at)
}

// HourOfWeekFactor is the raw mean-one profile: peakFactor during
// weekday business hours (UTC), offPeakFactor otherwise.
func HourOfWeekFactor(at time.Time) float64 {
	utc := at.UTC()
	switch utc.Weekday() {
	case time.Saturday, time.Sunday:
		return offPeakFactor
	}
	h := utc.Hour()
	if h >= peakStartHour && h < peakEndHour {
		return peakFactor
	}
	return offPeakFactor
}

// SeasonalHazardPerHour is HazardPerHour scaled by the seasonal factor.
func (m *Model) SeasonalHazardPerHour(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, error) {
	o, err := m.snap.metricOffer(t, r)
	if err != nil {
		return 0, err
	}
	return m.SeasonalHazardPerHourOf(o, at), nil
}

// SeasonalHazardPerHourOf is SeasonalHazardPerHour for a resolved
// market.
//
//spotverse:hotpath
func (m *Model) SeasonalHazardPerHourOf(o *Offer, at time.Time) float64 {
	base := o.frequency(at) * hazardScale
	return base * m.SeasonalFactor(at)
}
