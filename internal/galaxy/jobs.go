package galaxy

import (
	"errors"
	"fmt"
	"time"

	"spotverse/internal/simclock"
)

// The paper's workloads run Galaxy jobs on cloud instances whose
// durations — not just their outputs — matter: interruptions land in the
// middle of step execution. JobRunner executes a workflow as timed jobs
// on the simulation clock: each step occupies a fixed cost plus simulated
// time proportional to its input size, tools run at their step's
// completion instant, and an in-flight run can be cancelled the way a
// spot reclaim kills an instance, reporting how many steps had finished.

// Errors returned by the job runner.
var (
	ErrJobCancelled = errors.New("galaxy: job cancelled")
	ErrJobRunning   = errors.New("galaxy: job still running")
)

// throughputBytesPerSec converts a step's input bytes into processing
// time on a 4-vCPU instance such as the paper's m5.xlarge (2 MiB/s).
const throughputBytesPerSec = 2 << 20

// JobOptions tunes the duration model.
type JobOptions struct {
	// BasePerStep is each step's fixed cost (default 90 s).
	BasePerStep time.Duration
}

func (o JobOptions) normalized() JobOptions {
	if o.BasePerStep <= 0 {
		o.BasePerStep = 90 * time.Second
	}
	return o
}

// stepDuration models one step's runtime from its input volume.
func (o JobOptions) stepDuration(inputBytes int64) time.Duration {
	seconds := float64(inputBytes) / throughputBytesPerSec
	return o.BasePerStep + time.Duration(seconds*float64(time.Second))
}

// JobState is a job's lifecycle state.
type JobState int

// Job states.
const (
	JobRunning JobState = iota + 1
	JobCompleted
	JobCancelled
	JobFailed
)

// JobHandle tracks one timed workflow execution.
type JobHandle struct {
	runner *JobRunner
	wf     *Workflow

	state          JobState
	stepsCompleted int
	totalSteps     int
	started        time.Time
	finished       time.Time
	inv            *Invocation
	err            error
	done           func(*JobHandle)

	pending *simclock.Event
}

// State reports the job's current state.
func (h *JobHandle) State() JobState { return h.state }

// StepsCompleted reports finished steps so far.
func (h *JobHandle) StepsCompleted() int { return h.stepsCompleted }

// TotalSteps reports the workflow's step count.
func (h *JobHandle) TotalSteps() int { return h.totalSteps }

// Elapsed reports simulated runtime (so far, or total once finished).
func (h *JobHandle) Elapsed() time.Duration {
	end := h.finished
	if h.state == JobRunning {
		end = h.runner.eng.Now()
	}
	return end.Sub(h.started)
}

// Result returns the invocation once the job completed.
func (h *JobHandle) Result() (*Invocation, error) {
	switch h.state {
	case JobRunning:
		return nil, ErrJobRunning
	case JobCancelled:
		return nil, fmt.Errorf("workflow %q after %d/%d steps: %w", h.wf.Name, h.stepsCompleted, h.totalSteps, ErrJobCancelled)
	case JobFailed:
		return nil, h.err
	default:
		return h.inv, nil
	}
}

// Cancel aborts a running job (a spot reclaim mid-workflow). Cancelling
// a finished job is a no-op; it reports whether the job was running.
func (h *JobHandle) Cancel() bool {
	if h.state != JobRunning {
		return false
	}
	if h.pending != nil {
		h.pending.Cancel()
	}
	h.state = JobCancelled
	h.finished = h.runner.eng.Now()
	if h.done != nil {
		h.done(h)
	}
	return true
}

// JobRunner executes workflows as timed jobs.
type JobRunner struct {
	eng    *simclock.Engine
	galaxy *Instance
	opts   JobOptions
}

// NewJobRunner builds a runner over a Galaxy instance.
func NewJobRunner(eng *simclock.Engine, g *Instance, opts JobOptions) *JobRunner {
	return &JobRunner{eng: eng, galaxy: g, opts: opts.normalized()}
}

// Start begins executing the workflow on the clock. done (optional)
// fires when the job completes, fails, or is cancelled. Steps execute in
// topological order; each step's tool runs at its completion instant so
// outputs exist exactly when downstream steps start.
func (jr *JobRunner) Start(w *Workflow, inputs map[string]Dataset, done func(*JobHandle)) (*JobHandle, error) {
	x, err := jr.galaxy.newExecution(w, inputs)
	if err != nil {
		return nil, err
	}
	h := &JobHandle{
		runner:     jr,
		wf:         w,
		state:      JobRunning,
		totalSteps: len(w.Steps),
		started:    jr.eng.Now(),
		done:       done,
	}

	var runStep func(k int)
	runStep = func(k int) {
		if k == len(x.steps) {
			x.inv.Completed = true
			h.inv = x.inv
			h.state = JobCompleted
			h.finished = jr.eng.Now()
			if h.done != nil {
				h.done(h)
			}
			return
		}
		s := x.steps[k]
		in, size, err := x.resolve(s)
		if err != nil {
			h.fail(err)
			return
		}
		h.pending = jr.eng.ScheduleAfter(jr.opts.stepDuration(size), "galaxy-job:"+s.ID, func() {
			if h.state != JobRunning {
				return
			}
			if _, err := x.run(s, in); err != nil {
				h.fail(err)
				return
			}
			h.stepsCompleted++
			runStep(k + 1)
		})
	}
	runStep(0)
	return h, nil
}

func (h *JobHandle) fail(err error) {
	h.state = JobFailed
	h.err = err
	h.finished = h.runner.eng.Now()
	if h.done != nil {
		h.done(h)
	}
}
