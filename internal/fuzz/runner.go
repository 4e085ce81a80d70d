package fuzz

import (
	"fmt"

	"spotverse/internal/experiment"
	"spotverse/internal/serve"
	"spotverse/internal/simclock"
)

// serveTraceRequests sizes the serve arm's generated trace: ~48 seconds
// of arrivals at the default QPS, spanning every compressed fault
// window a 48-hour batch plan can produce.
const serveTraceRequests = 4800

// warmAttempts bounds snapshot warmup retries through injected faults
// (same default as the spotverse-serve CLI).
const warmAttempts = 20

// RunTrial executes one full fuzz trial for a plan: the batch arm (full
// journaled + lease-fenced stack under the plan's chaos schedule), the
// determinism arm (an identical re-run whose fingerprint must match),
// and the serve arm (a generated trace replayed through the placement
// daemon under the plan's compressed schedule). The caller checks the
// result with CheckAll.
func RunTrial(p Plan) (*TrialResult, error) {
	return runTrial(p, true, true)
}

// runTrial runs the batch arm always, and the determinism and serve
// arms when asked — shrinking skips arms the original violations never
// touched, which is most of the shrink budget.
func runTrial(p Plan, rerun, serveArm bool) (*TrialResult, error) {
	cfg := experiment.ChaosRunConfig{
		Seed:           p.Seed,
		Workloads:      p.Workloads,
		Schedule:       p.Schedule(simclock.Epoch),
		DisableFencing: p.DisableFencing,
		Horizon:        p.Horizon(),
	}
	batch, err := experiment.ChaosRun(cfg)
	if err != nil {
		return nil, fmt.Errorf("fuzz: batch arm: %w", err)
	}
	tr := &TrialResult{Plan: p, Batch: batch, BatchFingerprint: batch.Fingerprint()}
	if rerun {
		again, err := experiment.ChaosRun(cfg)
		if err != nil {
			return nil, fmt.Errorf("fuzz: determinism arm: %w", err)
		}
		tr.RerunFingerprint = again.Fingerprint()
	}
	if serveArm {
		sum, err := runServeArm(p)
		if err != nil {
			return nil, err
		}
		tr.Serve = sum
	}
	return tr, nil
}

// runServeArm replays a generated trace through the placement daemon
// under the plan's compressed chaos schedule.
func runServeArm(p Plan) (*serve.ReplaySummary, error) {
	sim, err := experiment.NewServeSimWith(p.Seed, p.ServeSchedule(simclock.Epoch))
	if err != nil {
		return nil, fmt.Errorf("fuzz: serve arm: %w", err)
	}
	srv, err := serve.New(serve.Config{Clock: sim.Env.Engine}, sim.Backend)
	if err != nil {
		return nil, fmt.Errorf("fuzz: serve arm: %w", err)
	}
	if err := sim.Warm(srv, warmAttempts); err != nil {
		return nil, fmt.Errorf("fuzz: serve arm: %w", err)
	}
	trace := experiment.GenerateServeTrace(p.Seed, serveTraceRequests, experiment.DefaultTraceQPS)
	sum, err := srv.Replay(sim.Env.Engine, trace, serve.ReplayOptions{})
	if err != nil {
		return nil, fmt.Errorf("fuzz: serve arm: %w", err)
	}
	return sum, nil
}

// ShrinkResult is the outcome of minimising a failing plan.
type ShrinkResult struct {
	// Plan is the minimised plan; it still triggers at least one of the
	// original violations.
	Plan Plan
	// Violations are the minimised plan's violations.
	Violations []Violation
	// Fingerprint is the minimised plan's batch-arm fingerprint — the
	// value every replay of the repro must reproduce.
	Fingerprint string
	// Runs counts trial executions the shrink consumed.
	Runs int
}

// DefaultShrinkBudget bounds trial re-runs during one shrink.
const DefaultShrinkBudget = 200

// Shrink minimises a failing plan: first ddmin over the fault events
// (greedy one-at-a-time removal to a 1-minimal event set — plans hold
// at most ten events, so this stays well inside the budget), then
// time-window bisection on each surviving windowed event (halving the
// window while the failure persists). A candidate "still fails" when it
// violates at least one invariant from the original violation set —
// every re-run is fully deterministic, so the search never flakes.
func Shrink(p Plan, original []Violation, budget int) (*ShrinkResult, error) {
	if len(original) == 0 {
		return nil, fmt.Errorf("fuzz: nothing to shrink: no violations")
	}
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	want := make(map[string]bool)
	for _, n := range violationNames(original) {
		want[n] = true
	}
	// Arms the original failure never implicated are dead weight during
	// the search; skip them and re-verify with a full trial at the end.
	rerun := want["journal-replay-convergence"]
	serveArm := want["serve-outcome-accounting"]

	s := &shrinker{want: want, rerun: rerun, serveArm: serveArm, budget: budget}
	best := p
	bestVs := original

	// Phase 1: ddmin by fault event, to fixpoint.
	for changed := true; changed && s.runs < s.budget; {
		changed = false
		for i := 0; i < len(best.Events) && s.runs < s.budget; i++ {
			cand := best
			cand.Events = append(append([]Event{}, best.Events[:i]...), best.Events[i+1:]...)
			if vs, fails, err := s.check(cand); err != nil {
				return nil, err
			} else if fails {
				best, bestVs = cand, vs
				changed = true
				i--
			}
		}
	}

	// Phase 2: time-window bisection on surviving windowed events —
	// shrink each window toward its midpoint from both ends.
	for i := range best.Events {
		e := &best.Events[i]
		if e.ToMS <= e.FromMS {
			continue
		}
		for s.runs < s.budget {
			half := (e.ToMS - e.FromMS) / 2
			if half < 60_000 { // stop below one minute
				break
			}
			cand := best
			cand.Events = append([]Event{}, best.Events...)
			cand.Events[i].ToMS = e.FromMS + half
			if vs, fails, err := s.check(cand); err != nil {
				return nil, err
			} else if fails {
				best, bestVs = cand, vs
				e = &best.Events[i]
				continue
			}
			cand.Events[i].ToMS = e.ToMS
			cand.Events[i].FromMS = e.ToMS - half
			if vs, fails, err := s.check(cand); err != nil {
				return nil, err
			} else if fails {
				best, bestVs = cand, vs
				e = &best.Events[i]
				continue
			}
			break
		}
	}

	// Final full-arm pass pins the canonical violations and fingerprint
	// the repro records.
	final, err := RunTrial(best)
	if err != nil {
		return nil, err
	}
	s.runs++
	if vs := CheckAll(final); len(vs) > 0 {
		bestVs = vs
	}
	return &ShrinkResult{
		Plan:        best,
		Violations:  bestVs,
		Fingerprint: final.BatchFingerprint,
		Runs:        s.runs,
	}, nil
}

type shrinker struct {
	want     map[string]bool
	rerun    bool
	serveArm bool
	budget   int
	runs     int
}

// check runs one shrink candidate and reports whether it still triggers
// an original violation.
func (s *shrinker) check(cand Plan) ([]Violation, bool, error) {
	s.runs++
	tr, err := runTrial(cand, s.rerun, s.serveArm)
	if err != nil {
		// A candidate the harness cannot even run is not a reproducer;
		// treat it as "does not fail" and keep the previous best.
		return nil, false, nil
	}
	vs := CheckAll(tr)
	for _, v := range vs {
		if s.want[v.Invariant] {
			return vs, true, nil
		}
	}
	return nil, false, nil
}

// VerifyRepro replays a repro file's plan twice and checks both runs
// reproduce the recorded fingerprint byte-identically and the recorded
// violation set by name. This is what -replay runs, and what the CI
// fuzz job uses to prove a repro is deterministic.
func VerifyRepro(r *Repro) error {
	wantNames := violationNames(r.Violations)
	for pass := 1; pass <= 2; pass++ {
		tr, err := RunTrial(r.Plan)
		if err != nil {
			return fmt.Errorf("fuzz: replay pass %d: %w", pass, err)
		}
		if tr.BatchFingerprint != r.Fingerprint {
			return fmt.Errorf("fuzz: replay pass %d: fingerprint %s, repro recorded %s",
				pass, tr.BatchFingerprint, r.Fingerprint)
		}
		got := violationNames(CheckAll(tr))
		if !equalStrings(got, wantNames) {
			return fmt.Errorf("fuzz: replay pass %d: violations %v, repro recorded %v", pass, got, wantNames)
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CampaignConfig parameterises a fuzz campaign.
type CampaignConfig struct {
	// Seeds are the campaign's trial seeds, one plan per seed.
	Seeds []int64
	// DisableFencing runs every plan against the deliberately broken
	// (unfenced) control plane — the build the split-brain invariant
	// must catch.
	DisableFencing bool
	// Workloads, when positive, overrides every plan's workload count.
	Workloads int
	// Log, when set, receives one progress line per trial.
	Log func(format string, args ...any)
}

// CampaignResult summarises a campaign.
type CampaignResult struct {
	// Trials is how many seeds ran.
	Trials int
	// Failures holds one shrunken repro per failing seed.
	Failures []*Repro
}

// Campaign generates one plan per seed, runs the full trial, and
// shrinks every failure into a replayable repro.
func Campaign(cfg CampaignConfig) (*CampaignResult, error) {
	res := &CampaignResult{}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for _, seed := range cfg.Seeds {
		p := Generate(seed)
		p.DisableFencing = cfg.DisableFencing
		if cfg.Workloads > 0 {
			p.Workloads = cfg.Workloads
		}
		tr, err := RunTrial(p)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed %d: %w", seed, err)
		}
		res.Trials++
		vs := CheckAll(tr)
		if len(vs) == 0 {
			logf("seed %d: ok (%d events, %d workloads)", seed, len(p.Events), p.Workloads)
			continue
		}
		logf("seed %d: VIOLATION %v — shrinking", seed, violationNames(vs))
		sr, err := Shrink(p, vs, DefaultShrinkBudget)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed %d: shrink: %w", seed, err)
		}
		logf("seed %d: shrunk to %d events in %d runs", seed, len(sr.Plan.Events), sr.Runs)
		res.Failures = append(res.Failures, &Repro{
			Plan:        sr.Plan,
			Violations:  sr.Violations,
			Fingerprint: sr.Fingerprint,
			ShrinkRuns:  sr.Runs,
		})
	}
	return res, nil
}
