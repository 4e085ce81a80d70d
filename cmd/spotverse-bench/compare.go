package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// A record is the file -out appends each pass to: one run per workload
// per pass, metrics by name. Running the base and head builds in turn,
// each appending to its own record, yields the pairs -compare needs.
type record struct {
	Runs []recordRun `json:"runs"`
}

type recordRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// appendRecord adds the pass's outcomes to the record at path, creating
// it when absent.
func appendRecord(path string, outs []*outcome) error {
	r, err := readRecord(path)
	if errors.Is(err, fs.ErrNotExist) {
		r, err = &record{}, nil
	}
	if err != nil {
		return err
	}
	for _, o := range outs {
		run := recordRun{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace,
			Correct: o.Failed == 0 && len(o.Failures) == 0, Metrics: map[string]float64{}}
		for _, m := range o.Metrics {
			run.Metrics[m.Name] = m.Value
		}
		r.Runs = append(r.Runs, run)
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Verdicts.
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is how many base/head pairs a gain must rest on.
const minPairs = 10

// verdict compares the i-th base run with the i-th head run. A gain
// needs at least nine tenths of the pairs won (ties count for neither)
// and a median gap wider than the base's interquartile range. A bounded
// metric is unresolved when the base's own spread is wider than the
// bound, whichever way the medians moved, unless every head run beats
// every base run; otherwise it is worse when the head median is worse
// than the base median by more than the bound. A gap past the bound that
// the pairs do not carry is unresolved too. An unbounded metric is worse
// by the mirror of the gain rule.
func verdict(spec metricSpec, base, head []float64) string {
	pairs := min(len(base), len(head))
	if pairs == 0 {
		return unresolved
	}
	better := spec.better
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(head[i], base[i]):
			wins++
		case better(base[i], head[i]):
			losses++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	hmed := median(head)
	iqr, gap := bq3-bq1, math.Abs(hmed-bmed)
	if pairs >= minPairs && wins*10 >= 9*pairs && gap > iqr && better(hmed, bmed) {
		return improved
	}
	if spec.Bound > 0 {
		bound := spec.Bound * math.Abs(bmed)
		switch {
		case iqr > bound && allBetter(head, base, better):
			return improved
		case iqr > bound:
			// Too noisy to call either way.
			return unresolved
		case better(bmed, hmed) && gap > bound:
			return worse
		case gap > bound:
			// A gain the pairs do not carry.
			return unresolved
		}
		return unchanged
	}
	if pairs >= minPairs && losses*10 >= 9*pairs && gap > iqr && better(bmed, hmed) {
		return worse
	}
	if gap == 0 {
		return unchanged
	}
	return unresolved
}

func allBetter(head, base []float64, better func(a, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return len(head) > 0 && len(base) > 0
}

// compare prints one row per (workload, metric) of the gated metrics.
// It reports whether any metric got worse.
func compare(w io.Writer, basePath, headPath string) (bool, error) {
	base, err := readRecord(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRecord(headPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-17s %-28s %4s  %-30s %-30s %6s  %s\n", "workload", "metric", "n", "base median [q1 q3]", "head median [q1 q3]", "wins", "verdict")
	anyWorse := false
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, spec := range specs {
				b, h := series(base, wl.name, traced, spec.Name), series(head, wl.name, traced, spec.Name)
				if len(b) == 0 && len(h) == 0 {
					continue
				}
				v := verdict(spec, b, h)
				anyWorse = anyWorse || v == worse
				fmt.Fprintf(w, "%-17s %-28s %4d  %-30s %-30s %6s  %s\n", wl.name, spec.Name, min(len(b), len(h)),
					spread(b), spread(h), wins(spec, b, h), v)
			}
		}
	}
	return anyWorse, nil
}

func series(r *record, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace != traced {
			continue
		}
		if v, ok := run.Metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%s [%s %s]", formatValue(q2), formatValue(q1), formatValue(q3))
}

func wins(spec metricSpec, base, head []float64) string {
	pairs := min(len(base), len(head))
	n := 0
	for i := 0; i < pairs; i++ {
		if spec.better(head[i], base[i]) {
			n++
		}
	}
	return fmt.Sprintf("%d/%d", n, pairs)
}
