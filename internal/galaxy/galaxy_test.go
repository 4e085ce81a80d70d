package galaxy

import (
	"errors"
	"strings"
	"testing"

	"spotverse/internal/bioinf/fasta"
	"spotverse/internal/bioinf/fastq"
	"spotverse/internal/bioinf/synth"
	"spotverse/internal/bioinf/vcf"
	"spotverse/internal/simclock"
)

const (
	adminUser = "admin@example.org"
	adminKey  = "secret-api-key"
)

func newGalaxy(t *testing.T) *Instance {
	t.Helper()
	g := New(Config{
		AdminUsers: []string{adminUser},
		APIKeys:    map[string]string{adminUser: adminKey},
	})
	if err := InstallStandardTools(g, adminUser); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAdminGateOnInstall(t *testing.T) {
	g := New(Config{AdminUsers: []string{adminUser}})
	err := g.InstallTool("mallory@example.org", Tool{ID: "x", Run: func(map[string]Dataset, map[string]string) (map[string]Dataset, error) { return nil, nil }})
	if !errors.Is(err, ErrNotAdmin) {
		t.Fatalf("err = %v, want ErrNotAdmin", err)
	}
}

func TestDuplicateToolRejected(t *testing.T) {
	g := newGalaxy(t)
	err := g.InstallTool(adminUser, Tool{ID: "fastqc", Run: func(map[string]Dataset, map[string]string) (map[string]Dataset, error) { return nil, nil }})
	if !errors.Is(err, ErrToolExists) {
		t.Fatalf("err = %v, want ErrToolExists", err)
	}
}

func TestAuthenticate(t *testing.T) {
	g := newGalaxy(t)
	user, err := g.Authenticate(adminKey)
	if err != nil || user != adminUser {
		t.Fatalf("user=%q err=%v", user, err)
	}
	if _, err := g.Authenticate("wrong"); !errors.Is(err, ErrBadAPIKey) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Authenticate(""); !errors.Is(err, ErrBadAPIKey) {
		t.Fatalf("empty key err = %v", err)
	}
}

func TestStandardToolCount(t *testing.T) {
	g := newGalaxy(t)
	if n := len(g.Tools()); n != 25 {
		t.Fatalf("installed tools = %d, want 25", n)
	}
}

func TestHistoryDatasets(t *testing.T) {
	h := newHistory()
	h.Add(Dataset{Name: "a", Format: "txt", Data: []byte("1")})
	h.Add(Dataset{Name: "b", Format: "txt", Data: []byte("2")})
	h.Add(Dataset{Name: "a", Format: "txt", Data: []byte("3")}) // overwrite
	names := h.Datasets()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	d, ok := h.Get("a")
	if !ok || string(d.Data) != "3" {
		t.Fatalf("a = %+v ok=%v", d, ok)
	}
}

func TestWorkflowValidateCycle(t *testing.T) {
	w := &Workflow{Name: "cyclic", Steps: []Step{
		{ID: "a", Tool: "fastqc", Inputs: map[string]InputRef{"input": stepOut("b", "report")}},
		{ID: "b", Tool: "fastqc", Inputs: map[string]InputRef{"input": stepOut("a", "report")}},
	}}
	if _, err := w.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestWorkflowValidateDupStep(t *testing.T) {
	w := &Workflow{Name: "dup", Steps: []Step{
		{ID: "a", Tool: "fastqc"},
		{ID: "a", Tool: "fastqc"},
	}}
	if _, err := w.Validate(); !errors.Is(err, ErrDupStep) {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkflowValidateUnknownRef(t *testing.T) {
	w := &Workflow{Name: "bad", Steps: []Step{
		{ID: "a", Tool: "fastqc", Inputs: map[string]InputRef{"input": stepOut("ghost", "x")}},
	}}
	if _, err := w.Validate(); !errors.Is(err, ErrUnknownInput) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunWorkflowUnknownTool(t *testing.T) {
	g := newGalaxy(t)
	w := &Workflow{Name: "w", Steps: []Step{{ID: "a", Tool: "nope"}}}
	if _, err := g.RunWorkflow(w, nil, nil); !errors.Is(err, ErrUnknownTool) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunWorkflowMissingInput(t *testing.T) {
	g := newGalaxy(t)
	w := &Workflow{Name: "w", Steps: []Step{
		{ID: "a", Tool: "fastqc", Inputs: map[string]InputRef{"input": wfInput("reads")}},
	}}
	if _, err := g.RunWorkflow(w, map[string]Dataset{}, nil); !errors.Is(err, ErrMissingInput) {
		t.Fatalf("err = %v", err)
	}
}

// genomeInputs builds the four datasets the reconstruction workflow needs.
func genomeInputs(t *testing.T, seed int64) map[string]Dataset {
	t.Helper()
	rng := simclock.Stream(seed, "galaxy-test")
	ref, err := synth.Genome(rng, 4000)
	if err != nil {
		t.Fatal(err)
	}
	f, err := synth.Mutate(rng, ref, 0.008, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	var lineages []fasta.Record
	lineages = append(lineages, fasta.Record{ID: "B.1.1.7", Seq: ref})
	for _, name := range []string{"B.1.351", "P.1"} {
		g, err := synth.Genome(rng, 4000)
		if err != nil {
			t.Fatal(err)
		}
		lineages = append(lineages, fasta.Record{ID: name, Seq: g})
	}
	return map[string]Dataset{
		"reference":     {Name: "reference.fasta", Format: "fasta", Data: []byte(fasta.String([]fasta.Record{{ID: "ref", Seq: ref}}))},
		"reference_raw": {Name: "reference.seq", Format: "txt", Data: []byte(ref)},
		"variants":      {Name: "isolate.vcf", Format: "vcf", Data: []byte(vcf.String(f))},
		"lineages":      {Name: "lineages.fasta", Format: "fasta", Data: []byte(fasta.String(lineages))},
	}
}

// ngsShardInputs builds one FASTQ shard for the NGS preprocessing workflow.
func ngsShardInputs(t *testing.T, seed int64) map[string]Dataset {
	t.Helper()
	rng := simclock.Stream(seed, "ngs-test")
	tmpl, err := synth.Genome(rng, 2000)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := synth.Reads(rng, tmpl, synth.ReadsOptions{Count: 300, Length: 120, ErrorRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Dataset{
		"reads": {Name: "shard0.fastq", Format: "fastq", Data: []byte(fastq.String(reads))},
	}
}

func TestGenomeReconstructionWorkflowHas23Steps(t *testing.T) {
	w := GenomeReconstructionWorkflow()
	if len(w.Steps) != 23 {
		t.Fatalf("steps = %d, want 23 (the paper's 23-step workflow)", len(w.Steps))
	}
	if _, err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenomeReconstructionEndToEnd(t *testing.T) {
	g := newGalaxy(t)
	inputs := genomeInputs(t, 101)
	var stepsSeen []string
	inv, err := g.RunWorkflow(GenomeReconstructionWorkflow(), inputs, func(stepID string, _ map[string]Dataset) {
		stepsSeen = append(stepsSeen, stepID)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Completed || len(inv.Results) != 23 || len(stepsSeen) != 23 {
		t.Fatalf("completed=%v results=%d hooks=%d", inv.Completed, len(inv.Results), len(stepsSeen))
	}
	// The isolate derives from B.1.1.7, so classification must say so.
	assignment, ok := inv.History.Get("s18_classify/assignment")
	if !ok {
		t.Fatal("no lineage assignment dataset")
	}
	if !strings.Contains(string(assignment.Data), "lineage=B.1.1.7") {
		t.Fatalf("assignment = %q, want B.1.1.7", assignment.Data)
	}
	// The consensus must differ from the reference (variants applied).
	cons, ok := inv.History.Get("s12_consensus/consensus")
	if !ok {
		t.Fatal("no consensus dataset")
	}
	rawRef := inputs["reference_raw"].Data
	if string(cons.Data) == string(rawRef) {
		t.Fatal("consensus equals reference; variants not applied")
	}
	// The final archive must exist and mention the tree.
	archive, ok := inv.History.Get("s23_archive/archive")
	if !ok {
		t.Fatal("no archive dataset")
	}
	if !strings.Contains(string(archive.Data), "entries") {
		t.Fatalf("archive = %.80q", archive.Data)
	}
}

func TestNGSShardWorkflowEndToEnd(t *testing.T) {
	g := newGalaxy(t)
	inv, err := g.RunWorkflow(NGSPreprocessingShardWorkflow(), ngsShardInputs(t, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Completed || len(inv.Results) != 5 {
		t.Fatalf("completed=%v steps=%d", inv.Completed, len(inv.Results))
	}
	rep, ok := inv.History.Get("p5_multiqc/report")
	if !ok || !strings.Contains(string(rep.Data), "multiqc") {
		t.Fatalf("multiqc report missing: %v %.60q", ok, rep.Data)
	}
}

func TestPlanemoAuthAndRun(t *testing.T) {
	g := newGalaxy(t)
	if _, err := NewPlanemo(g, "bad-key"); err == nil {
		t.Fatal("bad key should fail auth")
	}
	p, err := NewPlanemo(g, adminKey)
	if err != nil {
		t.Fatal(err)
	}
	if p.User() != adminUser {
		t.Fatalf("user = %q", p.User())
	}
	res, err := p.Run(GenomeReconstructionWorkflow(), genomeInputs(t, 55), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != 23 || len(res.Outputs) == 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestStepFailureRecordedAndPropagated(t *testing.T) {
	g := newGalaxy(t)
	// n_content_check with max_n=0 against a sequence containing N fails.
	w := &Workflow{Name: "failing", Steps: []Step{
		{ID: "a", Tool: "n_content_check", Inputs: map[string]InputRef{"input": wfInput("seq")}, Params: map[string]string{"max_n": "0"}},
	}}
	inv, err := g.RunWorkflow(w, map[string]Dataset{"seq": {Name: "s", Format: "txt", Data: []byte("ACGNNN")}}, nil)
	if err == nil {
		t.Fatal("want step failure")
	}
	if inv == nil || len(inv.Results) != 1 || inv.Results[0].Err == nil || inv.Completed {
		t.Fatalf("inv = %+v", inv)
	}
}
