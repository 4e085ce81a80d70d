package qc

import (
	"strings"
	"testing"

	"spotverse/internal/bioinf/fastq"
	"spotverse/internal/bioinf/synth"
	"spotverse/internal/simclock"
)

func mkReads(qual byte, n, length int) []fastq.Read {
	out := make([]fastq.Read, n)
	for i := range out {
		out[i] = fastq.Read{
			ID:   "r",
			Seq:  strings.Repeat("AC", length/2),
			Qual: strings.Repeat(string(qual), length),
		}
	}
	return out
}

func TestAnalyzeBasics(t *testing.T) {
	rep, err := Analyze("shard-0", mkReads('I', 10, 100)) // Q40
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReadCount != 10 || rep.MeanLength != 100 {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.MeanQuality != 40 || rep.Q20Fraction != 1 {
		t.Fatalf("quality: %+v", rep)
	}
	if rep.GCFraction != 0.5 {
		t.Fatalf("gc = %v", rep.GCFraction)
	}
	if rep.QualityVerdict != VerdictPass || rep.GCVerdict != VerdictPass {
		t.Fatalf("verdicts: %v %v", rep.QualityVerdict, rep.GCVerdict)
	}
	if len(rep.PerPositionQuality) != 100 {
		t.Fatalf("per-position length = %d", len(rep.PerPositionQuality))
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze("x", nil); err == nil {
		t.Fatal("want ErrNoReads")
	}
}

func TestVerdictGrades(t *testing.T) {
	lowQ, _ := Analyze("low", mkReads('#', 5, 50)) // Q2
	if lowQ.QualityVerdict != VerdictFail {
		t.Fatalf("lowQ verdict = %v", lowQ.QualityVerdict)
	}
	midQ, _ := Analyze("mid", mkReads(33+24, 5, 50)) // Q24
	if midQ.QualityVerdict != VerdictWarn {
		t.Fatalf("midQ verdict = %v", midQ.QualityVerdict)
	}
}

func TestGCVerdict(t *testing.T) {
	allGC := []fastq.Read{{ID: "r", Seq: "GGGGCCCC", Qual: "IIIIIIII"}}
	rep, _ := Analyze("gc", allGC)
	if rep.GCVerdict != VerdictFail {
		t.Fatalf("gc verdict = %v for 100%% GC", rep.GCVerdict)
	}
}

func TestPerPositionQualityVariableLengths(t *testing.T) {
	reads := []fastq.Read{
		{ID: "a", Seq: "ACGT", Qual: "IIII"},
		{ID: "b", Seq: "AC", Qual: "##"},
	}
	rep, err := Analyze("v", reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerPositionQuality) != 4 {
		t.Fatalf("positions = %d", len(rep.PerPositionQuality))
	}
	if rep.PerPositionQuality[0] != 21 { // (40+2)/2
		t.Fatalf("pos0 = %v", rep.PerPositionQuality[0])
	}
	if rep.PerPositionQuality[3] != 40 { // only long read
		t.Fatalf("pos3 = %v", rep.PerPositionQuality[3])
	}
}

func TestAnalyzeSyntheticReads(t *testing.T) {
	rng := simclock.Stream(3, "qc-test")
	tmpl, err := synth.Genome(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := synth.Reads(rng, tmpl, synth.ReadsOptions{Count: 200, Length: 100, ErrorRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze("synth", reads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanQuality < 25 || rep.MeanQuality > 40 {
		t.Fatalf("synthetic mean quality %v implausible", rep.MeanQuality)
	}
	if rep.GCVerdict == VerdictFail {
		t.Fatalf("balanced synthetic genome failed GC check: %v", rep.GCFraction)
	}
}
