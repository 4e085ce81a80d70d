// Package cloudwatch simulates the two CloudWatch capabilities SpotVerse
// relies on: scheduled rules that periodically trigger targets (the
// Monitor's metric collectors and the Controller's 15-minute open-request
// sweep), and a simple metric sink for observability.
package cloudwatch

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cost"
	"spotverse/internal/simclock"
)

// ErrNilTarget is returned when scheduling without a target.
var ErrNilTarget = errors.New("cloudwatch: nil target")

// FaultFunc decides whether one API call fails with an injected fault
// (nil = healthy). Installed via SetFault; see internal/chaos.
type FaultFunc func(op string, region catalog.Region) error

// Datapoint is one metric observation.
type Datapoint struct {
	Time  time.Time
	Value float64
}

// Service is the simulated CloudWatch.
type Service struct {
	eng     *simclock.Engine
	ledger  *cost.Ledger
	metrics map[string][]Datapoint
	tickers []*simclock.Ticker
	fault   FaultFunc
}

// SetFault installs a fault interceptor; a faulted scheduled rule skips
// that tick (the rule keeps firing), a faulted PutMetric loses the
// datapoint. Nil (the default) disables injection.
func (s *Service) SetFault(fn FaultFunc) { s.fault = fn }

// New returns a service on the engine charging the ledger.
func New(eng *simclock.Engine, ledger *cost.Ledger) *Service {
	return &Service{eng: eng, ledger: ledger, metrics: make(map[string][]Datapoint)}
}

// Schedule registers a periodic rule firing target every interval until
// StopAll (or the simulation ends).
func (s *Service) Schedule(name string, interval time.Duration, target func(now time.Time)) error {
	if target == nil {
		return fmt.Errorf("schedule %q: %w", name, ErrNilTarget)
	}
	if interval <= 0 {
		return fmt.Errorf("schedule %q: non-positive interval %v", name, interval)
	}
	t := s.eng.Every(interval, "cw:"+name, func(now time.Time) {
		if s.fault != nil && s.fault("rule:"+name, "") != nil {
			return
		}
		target(now)
	})
	s.tickers = append(s.tickers, t)
	return nil
}

// StopAll stops every scheduled rule; used at experiment teardown so the
// event queue can drain.
func (s *Service) StopAll() {
	for _, t := range s.tickers {
		t.Stop()
	}
	s.tickers = nil
}

// PutMetric records one observation under the metric name.
func (s *Service) PutMetric(name string, value float64) {
	if s.fault != nil && s.fault("put-metric:"+name, "") != nil {
		return
	}
	s.metrics[name] = append(s.metrics[name], Datapoint{Time: s.eng.Now(), Value: value})
	s.ledger.MustAdd(cost.CategoryCloudWatch, cost.CloudWatchUSDPerMetricPut)
}

// Metric returns the recorded series for the name (copy).
func (s *Service) Metric(name string) []Datapoint {
	src := s.metrics[name]
	out := make([]Datapoint, len(src))
	copy(out, src)
	return out
}

// MetricNames returns all recorded metric names, sorted.
func (s *Service) MetricNames() []string {
	out := make([]string, 0, len(s.metrics))
	for k := range s.metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
