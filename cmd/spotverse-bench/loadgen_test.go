package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDue injects one 50 ms stall of the whole server.
// Every request due during the stall must show a latency reaching to the
// stall's end, including those that waited behind the busy connections,
// not just the one in flight.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n     = 200
		gap   = time.Millisecond
		stall = 50 * time.Millisecond
	)
	start := time.Now().Add(20 * time.Millisecond)
	var (
		mu                   sync.Mutex // one request at a time: a stall stalls the server
		stalled              bool
		stallBegin, stallEnd time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if !stalled && time.Now().After(start.Add(40*time.Millisecond)) {
			stalled = true
			stallBegin = time.Now()
			time.Sleep(stall)
			stallEnd = time.Now()
		}
	}))
	defer srv.Close()

	c := newClient(srv.URL, liveConns)
	defer c.close()
	reqs := make([]request, n)
	offsets := make([]time.Duration, n)
	for i := range reqs {
		reqs[i] = request{method: http.MethodGet, path: "/"}
		offsets[i] = time.Duration(i) * gap
	}
	lat, lag := c.openLoop(reqs, start, offsets)
	if c.failed != 0 {
		t.Fatalf("%d requests failed: %v", c.failed, c.failures)
	}
	mu.Lock()
	defer mu.Unlock()
	if !stalled {
		t.Fatal("the stall was never injected")
	}
	var lagDuring []float64
	for i, off := range offsets {
		due := start.Add(off)
		if due.Before(stallBegin) || !due.Before(stallEnd.Add(-5*time.Millisecond)) {
			continue
		}
		lagDuring = append(lagDuring, float64(lag[i]))
		if want := stallEnd.Sub(due); lat[i] < want {
			t.Errorf("request %d due %v into the stall: latency %v, want at least %v",
				i, due.Sub(stallBegin), lat[i], want)
		}
	}
	if len(lagDuring) < 30 {
		t.Errorf("only %d requests were due during the stall", len(lagDuring))
	}
	// A dispatcher blocked behind the busy connections would hand these
	// over about 25 ms late on average.
	if m := time.Duration(median(lagDuring)); m > 10*time.Millisecond {
		t.Errorf("median generator lag during the stall %v; the stall leaked into the dispatcher", m)
	}
}

func TestArrivalsAreSeededAndSorted(t *testing.T) {
	a, b := arrivals(7, 1000, 4000), arrivals(7, 1000, 4000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identical seeds", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	// 1,000 Poisson arrivals at 4,000/s span about 250 ms.
	if span := a[len(a)-1]; span < 200*time.Millisecond || span > 300*time.Millisecond {
		t.Errorf("1000 arrivals at 4000/s span %v", span)
	}
}
