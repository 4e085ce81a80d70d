package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wall := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		name       string
		spec       metricSpec
		base, head []float64
		want       string
	}{
		{"faster in every pair", wall, base, scale(base, 0.8), improved},
		{"slower past the bound", wall, base, scale(base, 1.2), worse},
		{"slower within the bound", wall, base, scale(base, 1.05), unchanged},
		{"a gain on too few pairs", wall, base[:5], scale(base[:5], 0.8), unresolved},
		{"base spread wider than the bound", wall, []float64{60, 100, 140, 80, 120}, []float64{100, 100, 100, 100, 100}, unresolved},
		{"noisy base, head median past the bound", wall, []float64{60, 100, 140, 80, 120}, []float64{120, 125, 130, 115, 135}, unresolved},
		{"throughput up", metricSpec{Better: "higher", Bound: 0.10}, base, scale(base, 1.3), improved},
		{"throughput down", metricSpec{Better: "higher", Bound: 0.10}, base, scale(base, 0.7), worse},
		{"equal counts", metricSpec{Better: "lower"}, base, base, unchanged},
		{"count up in every pair", metricSpec{Better: "lower"}, base, scale(base, 1.5), worse},
		{"no runs", wall, nil, nil, unresolved},
	} {
		if got := verdict(tc.spec, tc.base, tc.head); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	basePath, headPath := filepath.Join(dir, "base.json"), filepath.Join(dir, "head.json")
	for i := 0; i < 10; i++ {
		for _, side := range []struct {
			path string
			wall float64
		}{{basePath, 1.0 + float64(i%3)*0.01}, {headPath, 2.0}} {
			o := &outcome{Workload: "fleet-100k", Seed: int64(i)}
			o.add("wall_s", "s", side.wall, 5, "")
			o.add("setup_s", "s", 0.01, 5, "")
			if err := appendRecord(side.path, []*outcome{o}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	anyWorse, err := compare(&out, basePath, headPath)
	if err != nil {
		t.Fatal(err)
	}
	if !anyWorse {
		t.Error("a doubled wall time was not reported worse")
	}
	text := out.String()
	for _, want := range []string{"fleet-100k", "wall_s", "worse", "setup_s", "unchanged", "0/10"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}
