package lineage

import (
	"errors"
	"testing"

	"spotverse/internal/bioinf/synth"
	"spotverse/internal/bioinf/variant"
	"spotverse/internal/simclock"
)

func TestClassifyRecoversNearestLineage(t *testing.T) {
	rng := simclock.Stream(21, "lineage-test")
	c := NewClassifier(8)
	genomes := map[string]string{}
	for _, name := range []string{"B.1.1.7", "B.1.351", "P.1"} {
		g, err := synth.Genome(rng, 3000)
		if err != nil {
			t.Fatal(err)
		}
		genomes[name] = g
		if err := c.AddLineage(name, g); err != nil {
			t.Fatal(err)
		}
	}
	for name, g := range genomes {
		// A lightly mutated isolate must classify back to its origin.
		f, err := synth.Mutate(rng, g, 0.005, 0)
		if err != nil {
			t.Fatal(err)
		}
		isolate, _, err := variant.Consensus(g, f, variant.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Classify(isolate)
		if err != nil {
			t.Fatal(err)
		}
		if got.Lineage != name {
			t.Fatalf("isolate of %s classified as %s (dist %v)", name, got.Lineage, got.Distance)
		}
		if got.Confidence <= 0.1 {
			t.Fatalf("confidence %v too low for distinct random genomes", got.Confidence)
		}
	}
}

func TestExactMatchDistanceZero(t *testing.T) {
	rng := simclock.Stream(22, "lineage-test2")
	c := NewClassifier(0)
	g, _ := synth.Genome(rng, 2000)
	if err := c.AddLineage("A", g); err != nil {
		t.Fatal(err)
	}
	g2, _ := synth.Genome(rng, 2000)
	if err := c.AddLineage("B", g2); err != nil {
		t.Fatal(err)
	}
	got, err := c.Classify(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lineage != "A" || got.Distance > 1e-9 {
		t.Fatalf("got %+v", got)
	}
}

func TestErrors(t *testing.T) {
	c := NewClassifier(4)
	if _, err := c.Classify("ACGT"); !errors.Is(err, ErrNoLineages) {
		t.Fatalf("err = %v", err)
	}
	if err := c.AddLineage("", "ACGT"); !errors.Is(err, ErrEmptySeq) {
		t.Fatalf("err = %v", err)
	}
	if err := c.AddLineage("A", "ACGTACGT"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLineage("A", "ACGTACGT"); !errors.Is(err, ErrDupName) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Classify(""); !errors.Is(err, ErrEmptySeq) {
		t.Fatalf("err = %v", err)
	}
}

// Lineages are kept in name order, so a genome equidistant from two
// references goes to the lexicographically smaller name whatever the
// order they were added in.
func TestLineagesSorted(t *testing.T) {
	rng := simclock.Stream(23, "lineage-test3")
	g, err := synth.Genome(rng, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]string{{"z", "a", "m"}, {"a", "m", "z"}, {"m", "z", "a"}} {
		c := NewClassifier(4)
		for _, n := range order {
			if err := c.AddLineage(n, g); err != nil {
				t.Fatal(err)
			}
		}
		got, err := c.Classify(g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Lineage != "a" {
			t.Fatalf("order %v: lineage = %q, want a", order, got.Lineage)
		}
	}
}

func TestDefaultK(t *testing.T) {
	c := NewClassifier(-1)
	if c.k != DefaultK {
		t.Fatalf("k = %d, want %d", c.k, DefaultK)
	}
}
