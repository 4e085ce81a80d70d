// Package galaxy implements a Galaxy-like workflow management substrate:
// a tool registry ("toolshed"), histories holding named datasets, workflow
// DAGs executed in topological order, admin-gated tool installation, and a
// Planemo-style runner. It hosts the paper's two Galaxy workloads — the
// 23-step Genome Reconstruction workflow and the checkpointable NGS Data
// Preprocessing workflow — with every step backed by real computation
// from internal/bioinf. One executor runs a workflow, either in a
// synchronous loop (RunWorkflow) or as timed jobs on the simulation clock
// (JobRunner). Only the examples run Galaxy; every -exp experiment models
// its workloads as workload.Spec durations instead.
package galaxy

import (
	"errors"
	"fmt"
	"sort"
)

// Errors returned by the engine.
var (
	ErrNotAdmin     = errors.New("galaxy: user is not an administrator")
	ErrBadAPIKey    = errors.New("galaxy: invalid API key")
	ErrUnknownTool  = errors.New("galaxy: unknown tool")
	ErrToolExists   = errors.New("galaxy: tool already installed")
	ErrCycle        = errors.New("galaxy: workflow has a cycle")
	ErrUnknownInput = errors.New("galaxy: step references unknown input")
	ErrDupStep      = errors.New("galaxy: duplicate step id")
	ErrMissingInput = errors.New("galaxy: workflow input not supplied")
)

// Dataset is a named, typed blob in a history — Galaxy's unit of data.
type Dataset struct {
	// Name labels the dataset.
	Name string
	// Format is the datatype, e.g. "fasta", "fastq", "vcf", "txt".
	Format string
	// Data is the payload.
	Data []byte
}

// Tool is an installable computation. Run consumes named input datasets
// and parameters and produces named outputs.
type Tool struct {
	// ID is the tool's unique identifier in the shed.
	ID string
	// Description is shown in the tool panel.
	Description string
	// Run executes the tool.
	Run func(inputs map[string]Dataset, params map[string]string) (map[string]Dataset, error)
}

// Config is the Galaxy instance configuration file surface the paper
// touches: admin_users plus API keys.
type Config struct {
	// AdminUsers lists administrator e-mail addresses (the paper's
	// admin_users setting).
	AdminUsers []string
	// APIKeys maps user e-mail to API key.
	APIKeys map[string]string
}

// Instance is one deployed Galaxy.
type Instance struct {
	cfg  Config
	shed map[string]Tool
}

// History is an ordered collection of datasets.
type History struct {
	datasets map[string]Dataset
	order    []string
}

// New deploys a Galaxy instance with the given configuration.
func New(cfg Config) *Instance {
	admins := make([]string, len(cfg.AdminUsers))
	copy(admins, cfg.AdminUsers)
	keys := make(map[string]string, len(cfg.APIKeys))
	for k, v := range cfg.APIKeys {
		keys[k] = v
	}
	return &Instance{
		cfg:  Config{AdminUsers: admins, APIKeys: keys},
		shed: make(map[string]Tool),
	}
}

// IsAdmin reports whether the user is in admin_users.
func (g *Instance) IsAdmin(user string) bool {
	for _, a := range g.cfg.AdminUsers {
		if a == user {
			return true
		}
	}
	return false
}

// Authenticate maps an API key back to its user. Users are tried in
// sorted order so a key accidentally shared by two users resolves to the
// same one on every run.
func (g *Instance) Authenticate(apiKey string) (string, error) {
	for _, user := range sortedKeys(g.cfg.APIKeys) {
		if key := g.cfg.APIKeys[user]; key == apiKey && key != "" {
			return user, nil
		}
	}
	return "", ErrBadAPIKey
}

// sortedKeys returns the map's keys sorted, for deterministic iteration
// wherever order can leak into results, errors, or histories.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// InstallTool installs a tool into the shed; only admins may install
// (the paper's Galaxy Admin integration).
func (g *Instance) InstallTool(user string, t Tool) error {
	if !g.IsAdmin(user) {
		return fmt.Errorf("install %q as %q: %w", t.ID, user, ErrNotAdmin)
	}
	if t.ID == "" || t.Run == nil {
		return fmt.Errorf("install: tool needs id and run body")
	}
	if _, ok := g.shed[t.ID]; ok {
		return fmt.Errorf("install %q: %w", t.ID, ErrToolExists)
	}
	g.shed[t.ID] = t
	return nil
}

// Tools lists installed tool IDs, sorted.
func (g *Instance) Tools() []string {
	out := make([]string, 0, len(g.shed))
	for id := range g.shed {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// newHistory creates an empty history.
func newHistory() *History {
	return &History{datasets: make(map[string]Dataset)}
}

// Add stores a dataset in the history (latest wins by name).
func (h *History) Add(d Dataset) {
	if _, ok := h.datasets[d.Name]; !ok {
		h.order = append(h.order, d.Name)
	}
	h.datasets[d.Name] = d
}

// Get fetches a dataset by name.
func (h *History) Get(name string) (Dataset, bool) {
	d, ok := h.datasets[name]
	return d, ok
}

// Datasets lists dataset names in insertion order.
func (h *History) Datasets() []string {
	out := make([]string, len(h.order))
	copy(out, h.order)
	return out
}

// InputRef wires a step input to either a workflow input (Workflow != "")
// or a prior step's output.
type InputRef struct {
	// Workflow names a workflow-level input dataset.
	Workflow string
	// Step and Output name a prior step's output dataset.
	Step   string
	Output string
}

// Step is one workflow node.
type Step struct {
	// ID is unique within the workflow.
	ID string
	// Tool is the shed tool to run.
	Tool string
	// Inputs maps the tool's input names to their sources.
	Inputs map[string]InputRef
	// Params are tool parameters.
	Params map[string]string
}

// Workflow is a DAG of steps.
type Workflow struct {
	Name  string
	Steps []Step
}

// Validate checks the workflow: unique step IDs, known wiring, acyclicity.
// It returns a valid topological order of step indices.
func (w *Workflow) Validate() ([]int, error) {
	idx := make(map[string]int, len(w.Steps))
	for i, s := range w.Steps {
		if _, ok := idx[s.ID]; ok {
			return nil, fmt.Errorf("step %q: %w", s.ID, ErrDupStep)
		}
		idx[s.ID] = i
	}
	// Build edges: dependency -> dependent.
	adj := make([][]int, len(w.Steps))
	indeg := make([]int, len(w.Steps))
	for i, s := range w.Steps {
		for _, input := range sortedKeys(s.Inputs) {
			ref := s.Inputs[input]
			if ref.Workflow != "" {
				continue
			}
			j, ok := idx[ref.Step]
			if !ok {
				return nil, fmt.Errorf("step %q input %q references step %q: %w", s.ID, input, ref.Step, ErrUnknownInput)
			}
			adj[j] = append(adj[j], i)
			indeg[i]++
		}
	}
	// Kahn's algorithm, smallest index first for determinism.
	var order []int
	ready := make([]int, 0, len(w.Steps))
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		sort.Ints(ready)
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(order) != len(w.Steps) {
		return nil, fmt.Errorf("workflow %q: %w", w.Name, ErrCycle)
	}
	return order, nil
}

// StepResult records one executed step.
type StepResult struct {
	StepID  string
	Tool    string
	Outputs []string
	Err     error
}

// Invocation is one workflow execution.
type Invocation struct {
	Workflow string
	// Results are per-step outcomes in execution order.
	Results []StepResult
	// History holds every produced dataset, namespaced "step/output".
	History *History
	// Completed reports whether every step succeeded.
	Completed bool
}

// StepHook observes step completion (used by checkpointing integrations).
type StepHook func(stepID string, outputs map[string]Dataset)

// execution is one invocation in flight, shared by both executors:
// RunWorkflow steps it in a synchronous loop and JobRunner steps it on
// the simulation clock.
type execution struct {
	shed     map[string]Tool
	steps    []Step // in topological order
	inputs   map[string]Dataset
	produced map[string]map[string]Dataset
	inv      *Invocation
}

// newExecution validates the workflow, checks that every tool is
// installed, and opens a fresh history for the invocation.
func (g *Instance) newExecution(w *Workflow, inputs map[string]Dataset) (*execution, error) {
	order, err := w.Validate()
	if err != nil {
		return nil, err
	}
	for _, s := range w.Steps {
		if _, ok := g.shed[s.Tool]; !ok {
			return nil, fmt.Errorf("step %q: tool %q: %w", s.ID, s.Tool, ErrUnknownTool)
		}
	}
	steps := make([]Step, len(order))
	for k, i := range order {
		steps[k] = w.Steps[i]
	}
	return &execution{
		shed:     g.shed,
		steps:    steps,
		inputs:   inputs,
		produced: make(map[string]map[string]Dataset, len(w.Steps)),
		inv:      &Invocation{Workflow: w.Name, History: newHistory()},
	}, nil
}

// resolve gathers a step's inputs from the workflow inputs and earlier
// steps' outputs, and sums their sizes.
func (x *execution) resolve(s Step) (map[string]Dataset, int64, error) {
	in := make(map[string]Dataset, len(s.Inputs))
	var size int64
	for _, name := range sortedKeys(s.Inputs) {
		ref := s.Inputs[name]
		if ref.Workflow != "" {
			d, ok := x.inputs[ref.Workflow]
			if !ok {
				return nil, 0, fmt.Errorf("step %q input %q: workflow input %q: %w", s.ID, name, ref.Workflow, ErrMissingInput)
			}
			in[name] = d
			size += int64(len(d.Data))
			continue
		}
		outs, ok := x.produced[ref.Step]
		if !ok {
			return nil, 0, fmt.Errorf("step %q input %q: step %q has no outputs yet: %w", s.ID, name, ref.Step, ErrUnknownInput)
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

// run executes a step's tool on its resolved inputs and records the
// outcome: a failed step's error, or its outputs in the history and the
// step's result.
func (x *execution) run(s Step, in map[string]Dataset) (map[string]Dataset, error) {
	outs, err := x.shed[s.Tool].Run(in, s.Params)
	if err != nil {
		x.inv.Results = append(x.inv.Results, StepResult{StepID: s.ID, Tool: s.Tool, Err: err})
		return nil, fmt.Errorf("step %q (%s): %w", s.ID, s.Tool, err)
	}
	x.produced[s.ID] = outs
	// Sorted so the invocation history records datasets in the same
	// order every run regardless of map iteration.
	names := sortedKeys(outs)
	for _, name := range names {
		d := outs[name]
		x.inv.History.Add(Dataset{Name: s.ID + "/" + name, Format: d.Format, Data: d.Data})
	}
	x.inv.Results = append(x.inv.Results, StepResult{StepID: s.ID, Tool: s.Tool, Outputs: names})
	return outs, nil
}

// RunWorkflow executes the workflow against the supplied workflow inputs,
// recording outputs into a fresh history. hook may be nil.
func (g *Instance) RunWorkflow(w *Workflow, inputs map[string]Dataset, hook StepHook) (*Invocation, error) {
	x, err := g.newExecution(w, inputs)
	if err != nil {
		return nil, err
	}
	for _, s := range x.steps {
		in, _, err := x.resolve(s)
		if err != nil {
			return nil, err
		}
		outs, err := x.run(s, in)
		if err != nil {
			return x.inv, err
		}
		if hook != nil {
			hook(s.ID, outs)
		}
	}
	x.inv.Completed = true
	return x.inv, nil
}
