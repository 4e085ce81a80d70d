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
// on the simulation clock: each step occupies simulated time proportional
// to its input size and the instance's compute capacity, tools run at
// their step's completion instant, and an in-flight run can be cancelled
// the way a spot reclaim kills an instance, reporting how many steps had
// finished.

// Errors returned by the job runner.
var (
	ErrJobCancelled = errors.New("galaxy: job cancelled")
	ErrJobRunning   = errors.New("galaxy: job still running")
)

// throughputBytesPerSec converts a step's input bytes into processing
// time on the 4-vCPU reference instance (2 MiB/s).
const throughputBytesPerSec = 2 << 20

// JobOptions tunes the duration model.
type JobOptions struct {
	// BasePerStep is each step's fixed cost (default 90 s).
	BasePerStep time.Duration
	// VCPUs scales throughput and base cost: a 2-vCPU instance runs at
	// half the speed of the 4-vCPU reference (default 4).
	VCPUs int
}

func (o JobOptions) normalized() JobOptions {
	if o.BasePerStep <= 0 {
		o.BasePerStep = 90 * time.Second
	}
	if o.VCPUs <= 0 {
		o.VCPUs = 4
	}
	return o
}

// stepDuration models one step's runtime from its input volume.
func (o JobOptions) stepDuration(inputBytes int64) time.Duration {
	seconds := float64(inputBytes) / throughputBytesPerSec
	d := o.BasePerStep + time.Duration(seconds*float64(time.Second))
	scale := 4.0 / float64(o.VCPUs)
	return time.Duration(float64(d) * scale)
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
	order, err := w.Validate()
	if err != nil {
		return nil, err
	}
	for _, s := range w.Steps {
		if _, ok := jr.galaxy.shed[s.Tool]; !ok {
			return nil, fmt.Errorf("step %q: tool %q: %w", s.ID, s.Tool, ErrUnknownTool)
		}
	}
	h := &JobHandle{
		runner:     jr,
		wf:         w,
		state:      JobRunning,
		totalSteps: len(w.Steps),
		started:    jr.eng.Now(),
		done:       done,
	}
	inv := &Invocation{Workflow: w.Name, History: jr.galaxy.NewHistory("job: " + w.Name)}
	produced := make(map[string]map[string]Dataset, len(w.Steps))

	var runStep func(k int)
	runStep = func(k int) {
		if h.state != JobRunning {
			return
		}
		if k == len(order) {
			inv.Completed = true
			h.inv = inv
			h.state = JobCompleted
			h.finished = jr.eng.Now()
			if h.done != nil {
				h.done(h)
			}
			return
		}
		s := w.Steps[order[k]]
		in, size, err := jr.gatherInputs(s, inputs, produced)
		if err != nil {
			h.fail(err)
			return
		}
		h.pending = jr.eng.ScheduleAfter(jr.opts.stepDuration(size), "galaxy-job:"+s.ID, func() {
			if h.state != JobRunning {
				return
			}
			outs, err := jr.galaxy.shed[s.Tool].Run(in, s.Params)
			if err != nil {
				inv.Results = append(inv.Results, StepResult{StepID: s.ID, Tool: s.Tool, Err: err})
				h.fail(fmt.Errorf("step %q (%s): %w", s.ID, s.Tool, err))
				return
			}
			produced[s.ID] = outs
			// Sorted so StepResult.Outputs and the history dataset
			// order are identical on every run; the unsorted map range
			// here previously leaked iteration order into both.
			names := sortedKeys(outs)
			for _, name := range names {
				d := outs[name]
				inv.History.Add(Dataset{Name: s.ID + "/" + name, Format: d.Format, Data: d.Data})
			}
			inv.Results = append(inv.Results, StepResult{StepID: s.ID, Tool: s.Tool, Outputs: names})
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

// gatherInputs resolves a step's inputs and sums their sizes.
func (jr *JobRunner) gatherInputs(s Step, inputs map[string]Dataset, produced map[string]map[string]Dataset) (map[string]Dataset, int64, error) {
	in := make(map[string]Dataset, len(s.Inputs))
	var size int64
	for _, name := range sortedKeys(s.Inputs) {
		ref := s.Inputs[name]
		if ref.Workflow != "" {
			d, ok := inputs[ref.Workflow]
			if !ok {
				return nil, 0, fmt.Errorf("step %q input %q: workflow input %q: %w", s.ID, name, ref.Workflow, ErrMissingInput)
			}
			in[name] = d
			size += int64(len(d.Data))
			continue
		}
		outs, ok := produced[ref.Step]
		if !ok {
			return nil, 0, fmt.Errorf("step %q input %q: step %q not finished: %w", s.ID, name, ref.Step, ErrUnknownInput)
		}
		d, ok := outs[ref.Output]
		if !ok {
			return nil, 0, fmt.Errorf("step %q input %q: step %q lacks output %q: %w", s.ID, name, ref.Step, ref.Output, ErrUnknownInput)
		}
		in[name] = d
		size += int64(len(d.Data))
	}
	return in, size, nil
}
