package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"spotverse/internal/serve"
)

func testOptions() *options {
	return &options{
		addr:      "127.0.0.1:0",
		seed:      42,
		intensity: "off",
		warm:      20,
		genCount:  200,
		genQPS:    400,
	}
}

func TestGenTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	gen := func(seed int64, name string) string {
		o := testOptions()
		o.seed = seed
		o.genTrace = filepath.Join(dir, name)
		if err := runGenTrace(o, nil); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(o.genTrace)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := gen(7, "a.jsonl"), gen(7, "b.jsonl")
	if a != b {
		t.Fatal("same seed generated different traces")
	}
	if c := gen(8, "c.jsonl"); a == c {
		t.Fatal("different seeds generated identical traces")
	}
	entries, err := serve.ReadTrace(strings.NewReader(a))
	if err != nil {
		t.Fatalf("generated trace does not parse: %v", err)
	}
	if len(entries) != 200 {
		t.Fatalf("generated %d entries, want 200", len(entries))
	}
}

func TestGenTraceToStdout(t *testing.T) {
	o := testOptions()
	o.genTrace = "-"
	o.genCount = 10
	var buf bytes.Buffer
	if err := runGenTrace(o, &buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 10 {
		t.Fatalf("stdout trace has %d lines, want 10", n)
	}
}

func TestReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.genTrace = filepath.Join(dir, "trace.jsonl")
	o.genCount = 500
	o.genQPS = 600
	o.intensity = "medium"
	if err := runGenTrace(o, nil); err != nil {
		t.Fatal(err)
	}
	o.replayPath = o.genTrace
	o.verbose = true
	replay := func() string {
		var buf bytes.Buffer
		if err := runReplay(o, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := replay(), replay()
	if a != b {
		t.Fatal("two replays of the same trace diverged")
	}
	if !strings.Contains(a, "replay: requests=500 ") {
		t.Fatalf("summary line missing or wrong:\n%s", a)
	}
	if !strings.Contains(a, "shed: limiter=") {
		t.Fatalf("shed breakdown missing:\n%s", a)
	}
}

func TestReplayRejectsBadIntensity(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.genTrace = filepath.Join(dir, "trace.jsonl")
	o.genCount = 5
	if err := runGenTrace(o, nil); err != nil {
		t.Fatal(err)
	}
	o.replayPath = o.genTrace
	o.intensity = "apocalyptic"
	if err := runReplay(o, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown chaos intensity accepted")
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-seed", "7", "-chaos", "low", "-workers", "2", "-deadline", "1s"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 7 || o.intensity != "low" || o.workers != 2 || o.deadline != time.Second {
		t.Fatalf("flags parsed wrong: %+v", o)
	}
	if _, err := parseFlags([]string{"stray"}, &bytes.Buffer{}); err == nil {
		t.Fatal("stray positional argument accepted")
	}
}

func TestLiveServeDrainAndRecord(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.recordPath = filepath.Join(dir, "recorded.jsonl")
	o.deadline = 2 * time.Second
	o.drain = 5 * time.Second
	o.rate = 10000

	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- runLive(o, &stderr, sig, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v\nstderr: %s", err, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	// A placement round-trips through the live pipeline.
	body := bytes.NewBufferString(`{"workload_id":"wl-live-1"}`)
	resp, err := http.Post(base+"/v1/place", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var place serve.PlaceResponse
	if err := json.NewDecoder(resp.Body).Decode(&place); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place status %d, want 200", resp.StatusCode)
	}
	if len(place.Placements) != 1 {
		t.Fatalf("got %d placements, want 1", len(place.Placements))
	}

	// The advisor answers too, and readyz reports ready.
	resp, err = http.Get(base + "/v1/advisor")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advisor status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d, want 200", resp.StatusCode)
	}

	// SIGTERM drains cleanly: exit nil, recorded trace flushed and
	// replayable.
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never drained")
	}
	if !strings.Contains(stderr.String(), "drained clean") {
		t.Fatalf("no clean-drain report in stderr:\n%s", stderr.String())
	}
	f, err := os.Open(o.recordPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := serve.ReadTrace(f)
	if err != nil {
		t.Fatalf("recorded trace does not replay: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("recorded %d entries, want 2 (place + advisor)", len(entries))
	}
	if entries[0].Endpoint != serve.EndpointPlace || entries[0].WorkloadID != "wl-live-1" {
		t.Fatalf("first recorded entry wrong: %+v", entries[0])
	}
	if entries[1].Endpoint != serve.EndpointAdvisor {
		t.Fatalf("second recorded entry wrong: %+v", entries[1])
	}
}

func TestRealMainGenTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	var out, errb bytes.Buffer
	if code := realMain([]string{"-gen-trace", path, "-gen-count", "25"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != 25 {
		t.Fatalf("trace has %d lines, want 25", n)
	}
}

// TestReplayBadTraceFiles covers the three ways a -replay argument can
// be wrong — missing, empty, corrupt — and requires each to fail with a
// single usage-style error line and a nonzero exit, never a silent
// all-zero summary.
func TestReplayBadTraceFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	blank := filepath.Join(dir, "blank.jsonl")
	if err := os.WriteFile(blank, []byte("# comment only\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, []byte(`{"at_ms":0,"endpoint":"place"}`+"\n{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{
		"missing": filepath.Join(dir, "nope.jsonl"),
		"empty":   empty,
		"blank":   blank,
		"corrupt": corrupt,
	} {
		var out, errb bytes.Buffer
		code := realMain([]string{"-replay", path}, &out, &errb)
		if code != 1 {
			t.Fatalf("%s: exit %d, want 1 (stderr %q)", name, code, errb.String())
		}
		msg := strings.TrimSpace(errb.String())
		if msg == "" || strings.Count(msg, "\n") != 0 {
			t.Fatalf("%s: want exactly one error line, got:\n%s", name, errb.String())
		}
		if !strings.HasPrefix(msg, "spotverse-serve: replay:") {
			t.Fatalf("%s: error not usage-style: %q", name, msg)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: wrote a summary despite the bad trace:\n%s", name, out.String())
		}
	}
}

func TestRealMainBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRealMainRejectsBurstBelowPlaceCost: -rate 0.3 defaults the burst
// to 0.6, below one placement's cost, so the daemon must refuse to
// start rather than shed every placement forever.
func TestRealMainRejectsBurstBelowPlaceCost(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-rate", "0.3", "-addr", "127.0.0.1:0"}, &out, &errb); code == 0 {
		t.Fatal("-rate 0.3 exited 0, want non-zero")
	}
	if !strings.Contains(errb.String(), "burst 0.6") {
		t.Fatalf("stderr does not name the burst: %s", errb.String())
	}
}

func TestUsageMentionsModes(t *testing.T) {
	var errb bytes.Buffer
	if code := realMain([]string{"-h"}, &bytes.Buffer{}, &errb); code != 0 {
		t.Fatalf("-h exited %d, want 0", code)
	}
	for _, want := range []string{"-replay", "-gen-trace", "-record", "-chaos"} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("usage missing %s:\n%s", want, errb.String())
		}
	}
}
