package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spotverse/internal/experiment"
	"spotverse/internal/serve"
	"spotverse/internal/simclock"
)

// request is one prepared HTTP request of the live mix.
type request struct {
	method, path string
	body         []byte
	exclude      []string
	place        bool
}

// buildRequests turns the generated serve trace into HTTP requests: the
// endpoint mix, multi-placement counts and exclusions come from
// GenerateServeTrace; bodies are encoded up front so the generator does
// no JSON work while it keeps time.
func buildRequests(seed int64, n int) ([]request, error) {
	entries := experiment.GenerateServeTrace(seed, n, experiment.DefaultTraceQPS)
	out := make([]request, len(entries))
	for i, e := range entries {
		switch e.Endpoint {
		case serve.EndpointPlace:
			body, err := json.Marshal(serve.PlaceRequest{WorkloadID: e.WorkloadID, Count: e.Count, Exclude: e.Exclude})
			if err != nil {
				return nil, err
			}
			out[i] = request{method: http.MethodPost, path: "/v1/place", body: body, exclude: e.Exclude, place: true}
		case serve.EndpointAdvisor:
			out[i] = request{method: http.MethodGet, path: "/v1/advisor"}
		default:
			out[i] = request{method: http.MethodGet, path: "/v1/migrations"}
		}
	}
	return out, nil
}

// arrivals returns Poisson arrival offsets at rate per second, drawn
// from their own seeded stream.
func arrivals(seed int64, n int, rate float64) []time.Duration {
	rng := simclock.Stream(seed, "bench-arrivals")
	out := make([]time.Duration, n)
	at := 0.0
	for i := range out {
		if i > 0 {
			at += rng.Exp(1e9 / rate)
		}
		out[i] = time.Duration(at)
	}
	return out
}

// client sends requests over at most conns keep-alive connections and
// validates every answer.
type client struct {
	base  string
	http  *http.Client
	conns int
	// ranking is the advisor's region ranking; every answered placement
	// must name one of its regions.
	ranking map[string]bool

	responses atomic.Int64
	mu        sync.Mutex
	failed    int
	failures  []string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, conns: conns, http: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// fetchRanking reads the advisor ranking the placements are checked
// against. The live backend never advances simulated time, so the
// ranking stays fixed for the whole unit.
func (c *client) fetchRanking() error {
	body, code, err := c.do(request{method: http.MethodGet, path: "/v1/advisor"})
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("advisor: status %d", code)
	}
	var adv serve.AdvisorResponse
	if err := json.Unmarshal(body, &adv); err != nil {
		return fmt.Errorf("advisor: %w", err)
	}
	c.ranking = make(map[string]bool, len(adv.Ranking))
	for _, r := range adv.Ranking {
		c.ranking[r] = true
	}
	return nil
}

func (c *client) do(r request) ([]byte, int, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		return nil, 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	c.responses.Add(1)
	return b, resp.StatusCode, err
}

// send issues one request and counts it failed unless it was answered
// 200 with a valid body.
func (c *client) send(r request) {
	body, code, err := c.do(r)
	switch {
	case err != nil:
		c.fail("%s %s: %v", r.method, r.path, err)
	case code != http.StatusOK:
		c.fail("%s %s: status %d", r.method, r.path, code)
	case r.place:
		if err := c.checkPlace(r, body); err != nil {
			c.fail("%s: %v", r.path, err)
		}
	}
}

// checkPlace verifies an answered placement names ranked regions only,
// and none the request excluded.
func (c *client) checkPlace(r request, body []byte) error {
	var resp serve.PlaceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Placements) == 0 {
		return fmt.Errorf("no placements")
	}
	for _, p := range resp.Placements {
		if !c.ranking[p.Region] {
			return fmt.Errorf("region %q is not in the advisor ranking", p.Region)
		}
		for _, x := range r.exclude {
			if p.Region == x {
				return fmt.Errorf("region %q was excluded", p.Region)
			}
		}
	}
	return nil
}

func (c *client) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// openLoop sends reqs[i] when it is due, at start+offsets[i], whether or
// not earlier requests were answered; with every connection busy, due
// requests wait their turn. Each latency is timed from the due time, so
// a server stall inflates every request due during it, not only the one
// in flight. lag is how late the generator itself handed each request
// over.
func (c *client) openLoop(reqs []request, start time.Time, offsets []time.Duration) (lat, lag []time.Duration) {
	lat = make([]time.Duration, len(reqs))
	lag = make([]time.Duration, len(reqs))
	// Sized to every request: the dispatcher must never block on busy
	// connections, or its own lateness would mix into the queueing it is
	// meant to expose.
	jobs := make(chan int, len(reqs))
	var wg sync.WaitGroup
	wg.Add(c.conns)
	for w := 0; w < c.conns; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				c.send(reqs[i])
				lat[i] = time.Since(start.Add(offsets[i]))
			}
		}()
	}
	for i := range reqs {
		due := start.Add(offsets[i])
		sleepUntil(due)
		lag[i] = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return lat, lag
}

// closedLoop sends reqs back to back over every connection, each
// connection waiting for its answer before sending the next, and
// returns the time the whole batch took.
func (c *client) closedLoop(reqs []request) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(c.conns)
	for w := 0; w < c.conns; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				c.send(reqs[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sleepUntil blocks until t with nanosleep, whose wake-up error is tens
// of microseconds; the runtime's timers round sub-millisecond waits up
// to a millisecond when the process is otherwise idle.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			return
		}
	}
}
