package synth

import (
	"strings"
	"testing"

	"spotverse/internal/simclock"
)

func rng() *simclock.RNG { return simclock.Stream(7, "synth-test") }

func TestGenomeLengthAndAlphabet(t *testing.T) {
	g, err := Genome(rng(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 1000 {
		t.Fatalf("len = %d", len(g))
	}
	for i := 0; i < len(g); i++ {
		if !strings.ContainsRune("ACGT", rune(g[i])) {
			t.Fatalf("bad base %q", g[i])
		}
	}
}

func TestGenomeBadLength(t *testing.T) {
	if _, err := Genome(rng(), 0); err == nil {
		t.Fatal("want error")
	}
}

func TestGenomeBalancedComposition(t *testing.T) {
	g, _ := Genome(rng(), 20000)
	counts := map[byte]int{}
	for i := 0; i < len(g); i++ {
		counts[g[i]]++
	}
	for _, b := range []byte("ACGT") {
		frac := float64(counts[b]) / float64(len(g))
		if frac < 0.2 || frac > 0.3 {
			t.Fatalf("base %q fraction %v outside [0.2, 0.3]", b, frac)
		}
	}
}

func TestMutateRates(t *testing.T) {
	r := rng()
	ref, _ := Genome(r, 10000)
	f, err := Mutate(r, ref, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(f.Variants)
	if n < 50 || n > 200 {
		t.Fatalf("substitutions = %d, want ~100", n)
	}
	for _, v := range f.Variants {
		if v.Ref == v.Alt {
			t.Fatal("no-op substitution generated")
		}
		if ref[v.Pos-1] != v.Ref[0] {
			t.Fatalf("REF %q does not match reference at pos %d", v.Ref, v.Pos)
		}
	}
}

func TestMutateZeroRates(t *testing.T) {
	r := rng()
	ref, _ := Genome(r, 500)
	f, err := Mutate(r, ref, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Variants) != 0 {
		t.Fatalf("variants = %d, want 0", len(f.Variants))
	}
}

func TestMutateBadRate(t *testing.T) {
	if _, err := Mutate(rng(), "ACGT", 1.5, 0); err == nil {
		t.Fatal("want error")
	}
}

func TestMutateVariantsSortedNonOverlapping(t *testing.T) {
	r := rng()
	ref, _ := Genome(r, 5000)
	f, err := Mutate(r, ref, 0.02, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := 0
	for _, v := range f.Variants {
		if v.Pos <= prevEnd {
			t.Fatalf("variant at pos %d overlaps previous ending %d", v.Pos, prevEnd)
		}
		prevEnd = v.Pos + len(v.Ref) - 1
	}
}

func TestReads(t *testing.T) {
	r := rng()
	tmpl, _ := Genome(r, 2000)
	reads, err := Reads(r, tmpl, ReadsOptions{Count: 100, Length: 150, ErrorRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 100 {
		t.Fatalf("reads = %d", len(reads))
	}
	for _, rd := range reads {
		if len(rd.Seq) != 150 || len(rd.Qual) != 150 {
			t.Fatalf("read %s lengths: seq %d qual %d", rd.ID, len(rd.Seq), len(rd.Qual))
		}
	}
}

func TestReadsErrorRateRealized(t *testing.T) {
	r := rng()
	tmpl, _ := Genome(r, 400)
	clean, err := Reads(r, tmpl, ReadsOptions{Count: 200, Length: 100, ErrorRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range clean {
		if !strings.Contains(tmpl, rd.Seq) {
			t.Fatal("error-free read not a substring of template")
		}
		if rd.MeanQuality() < 25 {
			t.Fatalf("clean read quality %v too low", rd.MeanQuality())
		}
	}
	noisy, err := Reads(r, tmpl, ReadsOptions{Count: 200, Length: 100, ErrorRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	mismatched := 0
	for _, rd := range noisy {
		if !strings.Contains(tmpl, rd.Seq) {
			mismatched++
		}
	}
	if mismatched < 150 {
		t.Fatalf("only %d/200 noisy reads carry errors", mismatched)
	}
}

func TestReadsValidation(t *testing.T) {
	r := rng()
	tmpl, _ := Genome(r, 100)
	if _, err := Reads(r, tmpl, ReadsOptions{Count: 0, Length: 50}); err == nil {
		t.Fatal("count 0 should error")
	}
	if _, err := Reads(r, tmpl, ReadsOptions{Count: 1, Length: 200}); err == nil {
		t.Fatal("length > template should error")
	}
	if _, err := Reads(r, tmpl, ReadsOptions{Count: 1, Length: 50, ErrorRate: 2}); err == nil {
		t.Fatal("bad error rate should error")
	}
}
