package galaxy

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spotverse/internal/simclock"
)

// Regression tests for map-iteration-order leaks found by spotverse-lint
// (mapiter): step outputs and history dataset order used to follow Go's
// randomized map range, so the same workflow produced differently
// ordered invocations across runs. They are pinned to sorted order here
// so a reintroduced map range fails deterministically, not one run in N.

// fanOutTool emits several outputs whose sorted order differs from any
// likely insertion order, making ordering mistakes visible.
func fanOutTool() Tool {
	return Tool{
		ID:          "fan-out",
		Description: "emits zeta/alpha/mid from one input",
		Run: func(inputs map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			in := inputs["reads"]
			return map[string]Dataset{
				"zeta":  {Name: "zeta", Format: "txt", Data: in.Data},
				"alpha": {Name: "alpha", Format: "txt", Data: in.Data},
				"mid":   {Name: "mid", Format: "txt", Data: in.Data},
			}, nil
		},
	}
}

func fanOutWorkflow() *Workflow {
	return &Workflow{
		Name: "fan-out",
		Steps: []Step{{
			ID:     "s1",
			Tool:   "fan-out",
			Inputs: map[string]InputRef{"reads": {Workflow: "reads"}},
		}},
	}
}

func checkFanOutInvocation(t *testing.T, inv *Invocation) {
	t.Helper()
	if len(inv.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(inv.Results))
	}
	wantOutputs := []string{"alpha", "mid", "zeta"}
	got := inv.Results[0].Outputs
	if len(got) != len(wantOutputs) {
		t.Fatalf("Outputs = %v, want %v", got, wantOutputs)
	}
	for i, name := range wantOutputs {
		if got[i] != name {
			t.Fatalf("Outputs = %v, want %v", got, wantOutputs)
		}
	}
	wantDatasets := []string{"s1/alpha", "s1/mid", "s1/zeta"}
	ds := inv.History.Datasets()
	if len(ds) != len(wantDatasets) {
		t.Fatalf("Datasets = %v, want %v", ds, wantDatasets)
	}
	for i, name := range wantDatasets {
		if ds[i] != name {
			t.Fatalf("Datasets = %v, want %v", ds, wantDatasets)
		}
	}
}

func TestRunWorkflowOutputsSorted(t *testing.T) {
	g := New(Config{AdminUsers: []string{adminUser}})
	if err := g.InstallTool(adminUser, fanOutTool()); err != nil {
		t.Fatal(err)
	}
	inputs := map[string]Dataset{"reads": {Name: "reads", Format: "txt", Data: []byte("acgt")}}
	for run := 0; run < 5; run++ {
		inv, err := g.RunWorkflow(fanOutWorkflow(), inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkFanOutInvocation(t, inv)
	}
}

func TestJobRunnerOutputsSorted(t *testing.T) {
	inputs := map[string]Dataset{"reads": {Name: "reads", Format: "txt", Data: []byte("acgt")}}
	for run := 0; run < 5; run++ {
		eng := simclock.NewEngine()
		g := New(Config{AdminUsers: []string{adminUser}})
		if err := g.InstallTool(adminUser, fanOutTool()); err != nil {
			t.Fatal(err)
		}
		jr := NewJobRunner(eng, g, JobOptions{})
		h, err := jr.Start(fanOutWorkflow(), inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(time.Time{}); err != nil {
			t.Fatal(err)
		}
		inv, err := h.Result()
		if err != nil {
			t.Fatal(err)
		}
		checkFanOutInvocation(t, inv)
	}
}

// A key shared by two users must resolve to the lexicographically
// smallest user every time; the unsorted map range used to return
// whichever user the iteration happened to visit first.
func TestAuthenticateDuplicateKeyDeterministic(t *testing.T) {
	g := New(Config{
		APIKeys: map[string]string{
			"zed@example.org":  "shared-key",
			"ann@example.org":  "shared-key",
			"mona@example.org": "other-key",
		},
	})
	for run := 0; run < 10; run++ {
		user, err := g.Authenticate("shared-key")
		if err != nil {
			t.Fatal(err)
		}
		if user != "ann@example.org" {
			t.Fatalf("Authenticate resolved shared key to %q, want ann@example.org", user)
		}
	}
}

// The synchronous loop (RunWorkflow) and the clocked one (JobRunner) must
// produce the same invocation for the workflows the examples run: the
// same step results, the same history datasets in the same order, and
// the same bytes.
func TestRunWorkflowMatchesJobRunner(t *testing.T) {
	cases := []struct {
		wf     *Workflow
		inputs map[string]Dataset
	}{
		{GenomeReconstructionWorkflow(), genomeInputs(t, 301)},
		{NGSPreprocessingShardWorkflow(), ngsShardInputs(t, 302)},
	}
	for _, tc := range cases {
		t.Run(tc.wf.Name, func(t *testing.T) {
			direct, err := newGalaxy(t).RunWorkflow(tc.wf, tc.inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng := simclock.NewEngine()
			h, err := NewJobRunner(eng, newGalaxy(t), JobOptions{}).Start(tc.wf, tc.inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(time.Time{}); err != nil {
				t.Fatal(err)
			}
			timed, err := h.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !direct.Completed || !timed.Completed {
				t.Fatalf("completed: direct=%v timed=%v", direct.Completed, timed.Completed)
			}
			if len(direct.Results) != len(tc.wf.Steps) || len(timed.Results) != len(direct.Results) {
				t.Fatalf("results: direct=%d timed=%d steps=%d", len(direct.Results), len(timed.Results), len(tc.wf.Steps))
			}
			for i, a := range direct.Results {
				b := timed.Results[i]
				if a.StepID != b.StepID || a.Tool != b.Tool || strings.Join(a.Outputs, ",") != strings.Join(b.Outputs, ",") || a.Err != nil || b.Err != nil {
					t.Fatalf("result %d: direct=%+v timed=%+v", i, a, b)
				}
			}
			names := direct.History.Datasets()
			if got := timed.History.Datasets(); strings.Join(got, ",") != strings.Join(names, ",") {
				t.Fatalf("datasets: direct=%v timed=%v", names, got)
			}
			for _, name := range names {
				a, _ := direct.History.Get(name)
				b, _ := timed.History.Get(name)
				if a.Format != b.Format || !bytes.Equal(a.Data, b.Data) {
					t.Fatalf("dataset %q differs between executors", name)
				}
			}
		})
	}
}
