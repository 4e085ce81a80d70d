// Command spotverse-serve runs the always-on placement service over a
// simulated SpotVerse deployment, in one of three modes:
//
//	live (default)  serve HTTP on -addr with the wall clock until
//	                SIGTERM/SIGINT, then drain gracefully and exit 0;
//	-replay FILE    drive a recorded JSONL trace through the identical
//	                gate pipeline on the simulation clock and print the
//	                deterministic outcome summary;
//	-gen-trace FILE synthesize a deterministic request trace and exit.
//
// Live servers can record their arrivals with -record FILE, producing a
// trace that -replay accepts — record an incident in production, replay
// it byte-stably in CI.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spotverse/internal/chaos"
	"spotverse/internal/experiment"
	"spotverse/internal/serve"
)

const usageLine = `usage: spotverse-serve [flags]

modes:
  (default)            live HTTP server on -addr; SIGTERM/SIGINT drains and exits 0
  -replay FILE         replay a JSONL trace deterministically and print the summary
  -gen-trace FILE      generate a deterministic trace ("-" for stdout) and exit

flags:`

// wallClock is the live daemon's time source. cmd/ is the sanctioned
// wall-clock edge: everything below the HTTP boundary takes time from
// the injected serve.Clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// options carries the parsed flag set.
type options struct {
	addr      string
	seed      int64
	intensity string

	workers  int
	queue    int
	rate     float64
	burst    float64
	deadline time.Duration
	drain    time.Duration
	svc      time.Duration
	warm     int

	replayPath string
	verbose    bool
	recordPath string

	genTrace string
	genCount int
	genQPS   float64
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("spotverse-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, usageLine)
		fs.PrintDefaults()
	}
	fs.StringVar(&o.addr, "addr", ":8085", "live mode listen address")
	fs.Int64Var(&o.seed, "seed", 42, "simulation seed (backend, chaos, trace generation)")
	fs.StringVar(&o.intensity, "chaos", "off", "chaos intensity: off, low, medium, severe")
	fs.IntVar(&o.workers, "workers", 0, "worker slots: concurrent backend calls (0 = default)")
	fs.IntVar(&o.queue, "queue", 0, "admission queue depth (0 = default)")
	fs.Float64Var(&o.rate, "rate", 0, "token bucket refill, cost units/s (0 = default)")
	fs.Float64Var(&o.burst, "burst", 0, "token bucket capacity, at least 1 (0 = 2x rate)")
	fs.DurationVar(&o.deadline, "deadline", 0, "per-request deadline (0 = default)")
	fs.DurationVar(&o.drain, "drain", 0, "drain deadline on shutdown (0 = default)")
	fs.DurationVar(&o.svc, "svc", 0, "modeled service time per cost unit (0 = default)")
	fs.IntVar(&o.warm, "warm-attempts", 20, "snapshot warmup retries through injected faults")
	fs.StringVar(&o.replayPath, "replay", "", "replay this JSONL trace instead of serving")
	fs.BoolVar(&o.verbose, "verbose", false, "replay: print one line per request")
	fs.StringVar(&o.recordPath, "record", "", "live: record arrivals to this trace file")
	fs.StringVar(&o.genTrace, "gen-trace", "", "generate a trace to this file and exit (\"-\" = stdout)")
	fs.IntVar(&o.genCount, "gen-count", 1000, "gen-trace: number of requests")
	fs.Float64Var(&o.genQPS, "gen-qps", experiment.DefaultTraceQPS, "gen-trace: mean arrival rate")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o, nil
}

// serveConfig translates flags into a serve.Config (Clock left to the
// mode: wall clock live, engine for replay).
func (o *options) serveConfig() serve.Config {
	return serve.Config{
		Workers:       o.workers,
		QueueDepth:    o.queue,
		RatePerSec:    o.rate,
		Burst:         o.burst,
		Deadline:      o.deadline,
		DrainDeadline: o.drain,
		ServiceTime:   o.svc,
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "spotverse-serve:", err)
		return 2
	}
	switch {
	case o.genTrace != "":
		err = runGenTrace(o, stdout)
	case o.replayPath != "":
		err = runReplay(o, stdout)
	default:
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sig)
		err = runLive(o, stderr, sig, nil)
	}
	if err != nil {
		fmt.Fprintln(stderr, "spotverse-serve:", err)
		return 1
	}
	return 0
}

// runGenTrace writes a deterministic synthetic trace.
func runGenTrace(o *options, stdout io.Writer) error {
	entries := experiment.GenerateServeTrace(o.seed, o.genCount, o.genQPS)
	if o.genTrace == "-" {
		return serve.WriteTrace(stdout, entries)
	}
	f, err := os.Create(o.genTrace)
	if err != nil {
		return err
	}
	if err := serve.WriteTrace(f, entries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildSim deploys the simulated environment and a server over it with
// the given clock (nil = the simulation engine), warmed through any
// injected faults.
func buildSim(o *options, clk serve.Clock, cfg serve.Config) (*experiment.ServeSim, *serve.Server, error) {
	intensity, err := chaos.ParseIntensity(o.intensity)
	if err != nil {
		return nil, nil, err
	}
	sim, err := experiment.NewServeSim(o.seed, intensity)
	if err != nil {
		return nil, nil, err
	}
	if clk == nil {
		clk = sim.Env.Engine
	}
	cfg.Clock = clk
	srv, err := serve.New(cfg, sim.Backend)
	if err != nil {
		return nil, nil, err
	}
	if err := sim.Warm(srv, o.warm); err != nil {
		return nil, nil, err
	}
	return sim, srv, nil
}

// runReplay drives a recorded trace deterministically and prints the
// summary.
func runReplay(o *options, stdout io.Writer) error {
	var in io.Reader = os.Stdin
	if o.replayPath != "-" {
		f, err := os.Open(o.replayPath)
		if err != nil {
			return fmt.Errorf("replay: cannot open trace: %w", err)
		}
		defer f.Close()
		in = f
	}
	entries, err := serve.ReadTrace(in)
	if err != nil {
		return fmt.Errorf("replay: %s: %w", o.replayPath, err)
	}
	if len(entries) == 0 {
		// ReadTrace tolerates blank lines and comments, so a file of
		// nothing but those (or zero bytes) parses to an empty trace —
		// replaying it would print an all-zero summary and exit 0, hiding
		// a truncated or wrong -replay argument.
		return fmt.Errorf("replay: %s: trace contains no requests", o.replayPath)
	}
	sim, srv, err := buildSim(o, nil, o.serveConfig())
	if err != nil {
		return err
	}
	_, err = srv.Replay(sim.Env.Engine, entries, serve.ReplayOptions{Out: stdout, Verbose: o.verbose})
	return err
}

// runLive serves HTTP until a signal arrives, then drains gracefully.
// ready, when non-nil, receives the bound address once the listener is
// up (tests bind -addr 127.0.0.1:0 and need the real port).
func runLive(o *options, stderr io.Writer, sig <-chan os.Signal, ready chan<- string) error {
	cfg := o.serveConfig()
	var recFile *os.File
	if o.recordPath != "" {
		f, err := os.Create(o.recordPath)
		if err != nil {
			return err
		}
		recFile = f
	}
	clk := wallClock{}
	if recFile != nil {
		rec := experiment.NewServeTraceRecorder(recFile, clk)
		cfg.Trace = rec
		cfg.OnDrain = append(cfg.OnDrain, rec.Flush, recFile.Sync)
	}
	_, srv, err := buildSim(o, clk, cfg)
	if err != nil {
		if recFile != nil {
			recFile.Close()
		}
		return err
	}
	if recFile != nil {
		defer recFile.Close()
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "spotverse-serve: listening on %s (seed=%d chaos=%s)\n", ln.Addr(), o.seed, o.intensity)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case s := <-sig:
		fmt.Fprintf(stderr, "spotverse-serve: received %v, draining\n", s)
	}

	// Drain first: the gate starts refusing new work with 503 +
	// Retry-After while the listener still answers, then in-flight
	// requests settle and the backend flushes. Shutdown then closes the
	// listener and waits for the last response writes.
	drainDeadline := cfg.DrainDeadline
	if drainDeadline <= 0 {
		drainDeadline = serve.DefaultDrainDeadline
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	drainErr := srv.Drain(dctx)
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		drainErr = errors.Join(drainErr, err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	st := srv.Stats()
	fmt.Fprintf(stderr, "spotverse-serve: drained clean (requests=%d ok=%d degraded=%d shed=%d deadline=%d errors=%d)\n",
		st.Requests, st.OK, st.Degraded, st.Shed, st.Deadline, st.Errors)
	return nil
}
