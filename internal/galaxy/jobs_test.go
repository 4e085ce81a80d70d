package galaxy

import (
	"errors"
	"testing"
	"time"

	"spotverse/internal/simclock"
)

func newJobRunner(t *testing.T) (*simclock.Engine, *JobRunner, *Instance) {
	t.Helper()
	eng := simclock.NewEngine()
	g := newGalaxy(t)
	return eng, NewJobRunner(eng, g, JobOptions{}), g
}

func TestTimedWorkflowCompletes(t *testing.T) {
	eng, jr, _ := newJobRunner(t)
	inputs := genomeInputs(t, 201)
	var doneState JobState
	h, err := jr.Start(GenomeReconstructionWorkflow(), inputs, func(h *JobHandle) { doneState = h.State() })
	if err != nil {
		t.Fatal(err)
	}
	if h.State() != JobRunning {
		t.Fatalf("state = %v at start", h.State())
	}
	if _, err := h.Result(); !errors.Is(err, ErrJobRunning) {
		t.Fatalf("early result err = %v", err)
	}
	if err := eng.Run(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if doneState != JobCompleted || h.State() != JobCompleted {
		t.Fatalf("state = %v done = %v", h.State(), doneState)
	}
	inv, err := h.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Completed || len(inv.Results) != 23 || h.StepsCompleted() != 23 {
		t.Fatalf("inv steps=%d completed=%d", len(inv.Results), h.StepsCompleted())
	}
	// 23 steps x >= 90s base: elapsed must exceed half an hour.
	if h.Elapsed() < 30*time.Minute {
		t.Fatalf("elapsed = %v, duration model missing", h.Elapsed())
	}
}

func TestCancelMidWorkflow(t *testing.T) {
	eng, jr, _ := newJobRunner(t)
	h, err := jr.Start(GenomeReconstructionWorkflow(), genomeInputs(t, 203), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Run for a few steps, then reclaim the instance.
	_ = eng.RunFor(8 * time.Minute)
	if h.StepsCompleted() == 0 || h.StepsCompleted() == h.TotalSteps() {
		t.Fatalf("steps completed = %d/%d; pick a better cancel point", h.StepsCompleted(), h.TotalSteps())
	}
	if !h.Cancel() {
		t.Fatal("cancel reported not running")
	}
	if h.Cancel() {
		t.Fatal("second cancel reported running")
	}
	if _, err := h.Result(); !errors.Is(err, ErrJobCancelled) {
		t.Fatalf("result err = %v", err)
	}
	before := h.StepsCompleted()
	_ = eng.Run(time.Time{})
	if h.StepsCompleted() != before {
		t.Fatal("steps advanced after cancellation")
	}
}

func TestTimedWorkflowFailurePropagates(t *testing.T) {
	eng, jr, _ := newJobRunner(t)
	w := &Workflow{Name: "failing", Steps: []Step{
		{ID: "a", Tool: "n_content_check", Inputs: map[string]InputRef{"input": wfInput("seq")}, Params: map[string]string{"max_n": "0"}},
	}}
	var final JobState
	h, err := jr.Start(w, map[string]Dataset{"seq": {Name: "s", Data: []byte("NNNN")}}, func(h *JobHandle) { final = h.State() })
	if err != nil {
		t.Fatal(err)
	}
	_ = eng.Run(time.Time{})
	if final != JobFailed || h.State() != JobFailed {
		t.Fatalf("state = %v", h.State())
	}
	if _, err := h.Result(); err == nil {
		t.Fatal("failed job returned a result")
	}
}

func TestStartValidation(t *testing.T) {
	_, jr, _ := newJobRunner(t)
	if _, err := jr.Start(&Workflow{Name: "w", Steps: []Step{{ID: "a", Tool: "ghost"}}}, nil, nil); !errors.Is(err, ErrUnknownTool) {
		t.Fatalf("err = %v", err)
	}
	cyclic := &Workflow{Name: "c", Steps: []Step{
		{ID: "a", Tool: "fastqc", Inputs: map[string]InputRef{"input": stepOut("b", "o")}},
		{ID: "b", Tool: "fastqc", Inputs: map[string]InputRef{"input": stepOut("a", "o")}},
	}}
	if _, err := jr.Start(cyclic, nil, nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingWorkflowInputFailsAtStart(t *testing.T) {
	eng, jr, _ := newJobRunner(t)
	w := &Workflow{Name: "w", Steps: []Step{
		{ID: "a", Tool: "fastqc", Inputs: map[string]InputRef{"input": wfInput("reads")}},
	}}
	h, err := jr.Start(w, map[string]Dataset{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = eng.Run(time.Time{})
	if h.State() != JobFailed {
		t.Fatalf("state = %v, want failed", h.State())
	}
}
