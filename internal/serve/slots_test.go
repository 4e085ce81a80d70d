package serve_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spotverse/internal/chaos"
	"spotverse/internal/experiment"
	"spotverse/internal/serve"
)

// heldBackend blocks every Place until release closes, ignoring the
// request context so a call keeps its worker slot for as long as the
// test wants. It records the most Place calls seen running at once.
type heldBackend struct {
	*serve.SimBackend
	release chan struct{}
	once    sync.Once
	entered chan struct{}
	running atomic.Int64
	peak    atomic.Int64
}

// Release lets every held and future Place call through.
func (b *heldBackend) Release() { b.once.Do(func() { close(b.release) }) }

func (b *heldBackend) Place(ctx context.Context, req *serve.PlaceRequest, resp *serve.PlaceResponse) error {
	n := b.running.Add(1)
	defer b.running.Add(-1)
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			break
		}
	}
	b.entered <- struct{}{}
	<-b.release
	return b.SimBackend.Place(ctx, req, resp)
}

// newHeldServer serves a heldBackend over HTTP with the given worker
// count and request deadline.
func newHeldServer(t *testing.T, workers int, deadline time.Duration) (*serve.Server, *heldBackend, *httptest.Server) {
	t.Helper()
	sim, err := experiment.NewServeSim(13, chaos.Off)
	if err != nil {
		t.Fatal(err)
	}
	hb := &heldBackend{SimBackend: sim.Backend, release: make(chan struct{}), entered: make(chan struct{}, 64)}
	srv, err := serve.New(serve.Config{
		Workers:     workers,
		QueueDepth:  16,
		RatePerSec:  10000,
		Deadline:    deadline,
		ServiceTime: time.Microsecond,
		Clock:       wallClock{},
	}, hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// Cleanups run last-in first-out: release held calls before
	// ts.Close waits on their connections, so a failing test ends.
	t.Cleanup(hb.Release)
	return srv, hb, ts
}

// placeStatus posts one placement and reports its status code and body
// (code 0 when the request itself failed).
func placeStatus(url, workloadID string) (int, string) {
	resp, err := http.Post(url+"/v1/place", "application/json",
		strings.NewReader(fmt.Sprintf(`{"workload_id":%q}`, workloadID)))
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestWorkerSlotsBoundBackendConcurrency(t *testing.T) {
	srv, hb, ts := newHeldServer(t, 2, 10*time.Second)
	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := placeStatus(ts.URL, fmt.Sprintf("wl-%d", i))
			codes <- code
		}(i)
	}
	// Both slots fill; give the other six requests time to (wrongly)
	// reach the backend before anything is released.
	<-hb.entered
	<-hb.entered
	time.Sleep(50 * time.Millisecond)
	if got := hb.running.Load(); got != 2 {
		t.Fatalf("%d Place calls running with both slots held, want 2", got)
	}
	hb.Release()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request answered %d, want 200", code)
		}
	}
	if got := hb.peak.Load(); got > 2 {
		t.Fatalf("peak concurrent Place calls = %d, want at most 2 (Workers)", got)
	}
	if st := srv.Stats(); st.OK != n || st.Requests != n {
		t.Fatalf("stats = %+v, want %d requests all ok", st, n)
	}
}

func TestDeadlineWhileWaitingForSlot(t *testing.T) {
	srv, hb, ts := newHeldServer(t, 1, 200*time.Millisecond)
	holder := make(chan int, 1)
	go func() {
		code, _ := placeStatus(ts.URL, "holder")
		holder <- code
	}()
	<-hb.entered
	// The only slot is held: this request's deadline runs out in line.
	code, body := placeStatus(ts.URL, "waiter")
	if code != http.StatusGatewayTimeout || !strings.Contains(body, "deadline exceeded in queue") {
		t.Fatalf("waiting request = %d %s, want 504 deadline exceeded in queue", code, body)
	}
	if st := srv.Stats(); st.Deadline != 1 {
		t.Fatalf("deadline count = %d, want 1", st.Deadline)
	}
	hb.Release()
	<-holder
	// A leaked ticket would keep Drain waiting forever.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain after a queue deadline returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain did not return: a ticket leaked")
	}
}
