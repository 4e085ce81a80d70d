package seq

import (
	"testing"

	"spotverse/internal/bioinf/fastq"
	"spotverse/internal/simclock"
)

func TestGCContent(t *testing.T) {
	if got := GCContent("GGCC"); got != 1 {
		t.Fatalf("GC = %v, want 1", got)
	}
	if got := GCContent("AATT"); got != 0 {
		t.Fatalf("GC = %v, want 0", got)
	}
	if got := GCContent("ACGT"); got != 0.5 {
		t.Fatalf("GC = %v, want 0.5", got)
	}
	if got := GCContent(""); got != 0 {
		t.Fatalf("GC empty = %v", got)
	}
}

func TestKmerProfile(t *testing.T) {
	p, err := KmerProfile("ACGTACG", 3)
	if err != nil {
		t.Fatal(err)
	}
	if p["ACG"] != 2 || p["CGT"] != 1 || p["GTA"] != 1 || p["TAC"] != 1 {
		t.Fatalf("profile = %v", p)
	}
}

func TestKmerProfileSkipsAmbiguous(t *testing.T) {
	p, err := KmerProfile("ACNGT", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p["CN"]; ok {
		t.Fatal("ambiguous k-mer counted")
	}
	if p["AC"] != 1 || p["GT"] != 1 {
		t.Fatalf("profile = %v", p)
	}
}

func TestKmerProfileBadK(t *testing.T) {
	if _, err := KmerProfile("ACGT", 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestCosineDistance(t *testing.T) {
	a, _ := KmerProfile("ACGTACGTACGT", 4)
	if d := CosineDistance(a, a); d > 1e-12 {
		t.Fatalf("self distance = %v, want 0", d)
	}
	b, _ := KmerProfile("GGGGGGGGGG", 4)
	if d := CosineDistance(a, b); d < 0.9 {
		t.Fatalf("disjoint distance = %v, want ~1", d)
	}
	if d := CosineDistance(nil, nil); d != 0 {
		t.Fatalf("empty-empty = %v", d)
	}
	if d := CosineDistance(a, nil); d != 1 {
		t.Fatalf("one-empty = %v", d)
	}
}

func TestCosineDistanceSymmetricAndBounded(t *testing.T) {
	g := simclock.NewRNG(7)
	bases := "ACGT"
	mk := func() map[string]int {
		s := make([]byte, 40)
		for i := range s {
			s[i] = bases[g.Intn(4)]
		}
		p, _ := KmerProfile(string(s), 3)
		return p
	}
	for i := 0; i < 50; i++ {
		a, b := mk(), mk()
		d1, d2 := CosineDistance(a, b), CosineDistance(b, a)
		if d1 != d2 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
		if d1 < -1e-12 || d1 > 1+1e-12 {
			t.Fatalf("out of bounds: %v", d1)
		}
	}
}

func TestHamming(t *testing.T) {
	d, err := Hamming("ACGT", "AGGT")
	if err != nil || d != 1 {
		t.Fatalf("d=%d err=%v", d, err)
	}
	if _, err := Hamming("AC", "ACG"); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func read(s string) fastq.Read {
	q := make([]byte, len(s))
	for i := range q {
		q[i] = 'I'
	}
	return fastq.Read{ID: "r", Seq: s, Qual: string(q)}
}

func TestTrimAdapterFullMatch(t *testing.T) {
	r, err := TrimAdapter(read("ACGTACGTAGATCGGAAGAGTT"), "AGATCGGAAGAG", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != "ACGTACGT" {
		t.Fatalf("trimmed = %q", r.Seq)
	}
	if len(r.Seq) != len(r.Qual) {
		t.Fatal("qual not trimmed with seq")
	}
}

func TestTrimAdapterWithMismatch(t *testing.T) {
	// One mismatch inside the adapter ("AGATCGGAAGAG" -> "AGATCGGTAGAG").
	r, err := TrimAdapter(read("CCCCAGATCGGTAGAGTTT"), "AGATCGGAAGAG", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != "CCCC" {
		t.Fatalf("trimmed = %q", r.Seq)
	}
}

func TestTrimAdapterPartialAtEnd(t *testing.T) {
	r, err := TrimAdapter(read("ACGTACGTAGATC"), "AGATCGGAAGAG", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != "ACGTACGT" {
		t.Fatalf("trimmed = %q", r.Seq)
	}
}

func TestTrimAdapterNoMatchUnchanged(t *testing.T) {
	in := read("ACGTACGTACGT")
	r, err := TrimAdapter(in, "GGGGGGGG", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != in.Seq {
		t.Fatalf("unexpected trim: %q", r.Seq)
	}
}

func TestTrimAdapterEmptyAdapter(t *testing.T) {
	if _, err := TrimAdapter(read("ACGT"), "", 0, 3); err == nil {
		t.Fatal("empty adapter should error")
	}
}

func TestQualityTrim(t *testing.T) {
	// Last 4 bases are Q2 ('#'), rest are Q40 ('I').
	r := fastq.Read{ID: "x", Seq: "ACGTACGT", Qual: "IIII####"}
	out := QualityTrim(r, 20)
	if out.Seq != "ACGT" {
		t.Fatalf("trimmed = %q", out.Seq)
	}
}

func TestQualityTrimKeepsGoodRead(t *testing.T) {
	r := read("ACGTACGT") // all Q40
	out := QualityTrim(r, 20)
	if out.Seq != r.Seq {
		t.Fatalf("good read trimmed to %q", out.Seq)
	}
}

func TestQualityTrimNeverLengthens(t *testing.T) {
	g := simclock.NewRNG(11)
	for i := 0; i < 100; i++ {
		n := g.Intn(40) + 1
		s := make([]byte, n)
		q := make([]byte, n)
		for j := range s {
			s[j] = "ACGT"[g.Intn(4)]
			q[j] = byte(fastq.PhredOffset + g.Intn(41))
		}
		r := fastq.Read{ID: "p", Seq: string(s), Qual: string(q)}
		out := QualityTrim(r, 20)
		if len(out.Seq) > n || len(out.Seq) != len(out.Qual) {
			t.Fatalf("bad trim: %d -> %d", n, len(out.Seq))
		}
	}
}
