package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// passes below start children by re-executing it, marked by childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// lastLine runs the benchmark with args and decodes its result line.
func lastLine(t *testing.T, args ...string) (resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%v: exit %d, result %+v\nstdout:\n%s\nstderr:\n%s", args, code, line, stdout.String(), stderr.String())
	}
	return line, stdout.String()
}

// TestQuickPass runs every workload once at reduced size, untraced and
// traced, and checks every gated metric is reported.
func TestQuickPass(t *testing.T) {
	begin := time.Now()
	line, out := lastLine(t, "-quick", "-seconds", "0")
	for _, w := range workloads {
		if !strings.Contains(out, "== "+w.name+" ") {
			t.Errorf("no block printed for %s", w.name)
		}
		for _, m := range endToEnd {
			v, ok := line.Metrics[w.name+"/"+m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s/%s = %+v, want a positive value in %s", w.name, m.Name, v, m.Unit)
			}
		}
	}
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	line, _ = lastLine(t, "-quick", "-seconds", "0", "-trace", "1", "-trace-out", traceFile)
	for _, w := range workloads {
		for _, m := range perLayer {
			if v, ok := line.Metrics[w.name+"/"+m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s/%s missing or in the wrong unit: %+v", w.name, m.Name, v)
			}
		}
		if v := line.Metrics[w.name+"/host.cpu_s"]; !(v.Value > 0) {
			t.Errorf("%s: host.cpu_s = %v", w.name, v.Value)
		}
	}
	b, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var outs []outcome
	if err := json.Unmarshal(b, &outs); err != nil || len(outs) != len(workloads) {
		t.Fatalf("trace file: %v, %d workloads", err, len(outs))
	}
	for _, o := range outs {
		if len(o.Spans) == 0 {
			t.Errorf("%s: no spans in the trace file", o.Workload)
		}
	}
	if d := time.Since(begin); d > 30*time.Second {
		t.Errorf("quick passes took %v, want under 30s", d)
	}
}

func TestSingleWorkloadLine(t *testing.T) {
	line, _ := lastLine(t, "--workload", "fleet-100k", "--seed", "7", "--seconds", "0", "--trace", "0", "-quick")
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("got %d metrics, want the %d end-to-end ones unprefixed", len(line.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if _, ok := line.Metrics[m.Name]; !ok {
			t.Errorf("missing %s", m.Name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-compare", "a.json"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q on stdout", args, stdout.String())
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json and this
// program's workloads and metric definitions in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "cmd/spotverse-bench" {
		t.Errorf("paths %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %+v, want %s with a one-line why", i, w, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d = %+v, program has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
