package galaxy

import (
	"strings"
	"testing"

	"spotverse/internal/bioinf/fasta"
	"spotverse/internal/bioinf/fastq"
	"spotverse/internal/bioinf/synth"
	"spotverse/internal/bioinf/vcf"
	"spotverse/internal/simclock"
)

// runTool executes one tool by ID against inputs/params.
func runTool(t *testing.T, id string, in map[string]Dataset, params map[string]string) map[string]Dataset {
	t.Helper()
	for _, tool := range StandardTools() {
		if tool.ID == id {
			out, err := tool.Run(in, params)
			if err != nil {
				t.Fatalf("tool %s: %v", id, err)
			}
			return out
		}
	}
	t.Fatalf("tool %s not found", id)
	return nil
}

// runToolErr executes one tool expecting an error.
func runToolErr(t *testing.T, id string, in map[string]Dataset, params map[string]string) error {
	t.Helper()
	for _, tool := range StandardTools() {
		if tool.ID == id {
			_, err := tool.Run(in, params)
			if err == nil {
				t.Fatalf("tool %s: expected error", id)
			}
			return err
		}
	}
	t.Fatalf("tool %s not found", id)
	return nil
}

func fastaDS(recs ...fasta.Record) Dataset {
	return Dataset{Name: "in.fasta", Format: "fasta", Data: []byte(fasta.String(recs))}
}

func fastqDS(reads []fastq.Read) Dataset {
	return Dataset{Name: "in.fastq", Format: "fastq", Data: []byte(fastq.String(reads))}
}

func vcfDS(f *vcf.File) Dataset {
	return Dataset{Name: "in.vcf", Format: "vcf", Data: []byte(vcf.String(f))}
}

func TestToolFastaValidate(t *testing.T) {
	out := runTool(t, "fasta_validate", map[string]Dataset{"input": fastaDS(fasta.Record{ID: "x", Seq: "ACGT"})}, nil)
	if !strings.Contains(string(out["output"].Data), ">x") {
		t.Fatalf("output = %q", out["output"].Data)
	}
	runToolErr(t, "fasta_validate", map[string]Dataset{"input": {Data: []byte("not fasta")}}, nil)
	runToolErr(t, "fasta_validate", map[string]Dataset{"input": {Data: nil}}, nil)
}

func TestToolFastaStats(t *testing.T) {
	out := runTool(t, "fasta_stats", map[string]Dataset{"input": fastaDS(
		fasta.Record{ID: "a", Seq: "GGCC"},
		fasta.Record{ID: "b", Seq: "AATT"},
	)}, nil)
	rep := string(out["report"].Data)
	if !strings.Contains(rep, "a\tlen=4\tgc=1.0000") || !strings.Contains(rep, "b\tlen=4\tgc=0.0000") {
		t.Fatalf("report = %q", rep)
	}
}

func TestToolVCFSortAndDedupe(t *testing.T) {
	f := &vcf.File{Variants: []vcf.Variant{
		{Chrom: "c", Pos: 9, Ref: "A", Alt: "T"},
		{Chrom: "c", Pos: 2, Ref: "G", Alt: "C"},
		{Chrom: "c", Pos: 9, Ref: "A", Alt: "G"}, // duplicate position
	}}
	sorted := runTool(t, "vcf_sort", map[string]Dataset{"input": vcfDS(f)}, nil)
	parsed, err := vcf.ParseString(string(sorted["output"].Data))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Variants[0].Pos != 2 {
		t.Fatalf("not sorted: %+v", parsed.Variants)
	}
	deduped := runTool(t, "vcf_dedupe", map[string]Dataset{"input": sorted["output"]}, nil)
	parsed2, err := vcf.ParseString(string(deduped["output"].Data))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed2.Variants) != 2 {
		t.Fatalf("dedupe kept %d variants", len(parsed2.Variants))
	}
}

func TestToolVCFFilters(t *testing.T) {
	f := &vcf.File{Variants: []vcf.Variant{
		{Chrom: "c", Pos: 1, Ref: "A", Alt: "T", Qual: 10, Filter: "PASS"},
		{Chrom: "c", Pos: 2, Ref: "G", Alt: "C", Qual: 90, Filter: "PASS"},
		{Chrom: "c", Pos: 3, Ref: "T", Alt: "A", Qual: 80, Filter: "lowqual"},
		{Chrom: "c", Pos: 4, Ref: "C", Alt: "CAT", Qual: 70, Filter: "PASS"},
	}}
	qual := runTool(t, "vcf_filter_qual", map[string]Dataset{"input": vcfDS(f)}, map[string]string{"min_qual": "50"})
	p1, _ := vcf.ParseString(string(qual["output"].Data))
	if len(p1.Variants) != 3 {
		t.Fatalf("qual filter kept %d", len(p1.Variants))
	}
	pass := runTool(t, "vcf_filter_pass", map[string]Dataset{"input": vcfDS(f)}, nil)
	p2, _ := vcf.ParseString(string(pass["output"].Data))
	if len(p2.Variants) != 3 {
		t.Fatalf("pass filter kept %d", len(p2.Variants))
	}
	snps := runTool(t, "vcf_select_snps", map[string]Dataset{"input": vcfDS(f)}, nil)
	p3, _ := vcf.ParseString(string(snps["output"].Data))
	if len(p3.Variants) != 3 {
		t.Fatalf("snp select kept %d", len(p3.Variants))
	}
	indels := runTool(t, "vcf_select_indels", map[string]Dataset{"input": vcfDS(f)}, nil)
	p4, _ := vcf.ParseString(string(indels["output"].Data))
	if len(p4.Variants) != 1 || p4.Variants[0].Pos != 4 {
		t.Fatalf("indel select = %+v", p4.Variants)
	}
}

func TestToolVCFStats(t *testing.T) {
	f := &vcf.File{Variants: []vcf.Variant{
		{Chrom: "c", Pos: 1, Ref: "A", Alt: "T"},
		{Chrom: "c", Pos: 3, Ref: "G", Alt: "GAA"},
		{Chrom: "c", Pos: 7, Ref: "TCC", Alt: "T"},
	}}
	out := runTool(t, "vcf_stats", map[string]Dataset{"input": vcfDS(f)}, nil)
	if got := string(out["report"].Data); !strings.Contains(got, "total=3 subs=1 ins=1 dels=1") {
		t.Fatalf("report = %q", got)
	}
}

func TestToolConsensusBuilder(t *testing.T) {
	ref := fastaDS(fasta.Record{ID: "r", Seq: "ACGTACGT"})
	f := &vcf.File{Variants: []vcf.Variant{{Chrom: "c", Pos: 3, Ref: "G", Alt: "T", Qual: 99, Filter: "PASS"}}}
	out := runTool(t, "consensus_builder", map[string]Dataset{"reference": ref, "variants": vcfDS(f)}, nil)
	if got := string(out["consensus"].Data); got != "ACTTACGT" {
		t.Fatalf("consensus = %q", got)
	}
	if !strings.Contains(string(out["report"].Data), "applied=1 subs=1") {
		t.Fatalf("report = %q", out["report"].Data)
	}
	// Multi-record reference rejected.
	runToolErr(t, "consensus_builder", map[string]Dataset{
		"reference": fastaDS(fasta.Record{ID: "a", Seq: "AC"}, fasta.Record{ID: "b", Seq: "GT"}),
		"variants":  vcfDS(f),
	}, nil)
}

func TestToolGCAndNContent(t *testing.T) {
	out := runTool(t, "gc_report", map[string]Dataset{"input": {Data: []byte("GGCCAATT")}}, nil)
	if !strings.Contains(string(out["report"].Data), "gc=0.5000 len=8") {
		t.Fatalf("report = %q", out["report"].Data)
	}
	ok := runTool(t, "n_content_check", map[string]Dataset{"input": {Data: []byte("ACGTNACGTA")}}, map[string]string{"max_n": "0.2"})
	if !strings.Contains(string(ok["report"].Data), "n_fraction=0.1000") {
		t.Fatalf("report = %q", ok["report"].Data)
	}
	runToolErr(t, "n_content_check", map[string]Dataset{"input": {Data: []byte("NNNNACGT")}}, map[string]string{"max_n": "0.1"})
}

func TestToolKmerProfileAndDistance(t *testing.T) {
	a := runTool(t, "kmer_profile", map[string]Dataset{"input": {Data: []byte("ACGTACGTACGT")}}, map[string]string{"k": "4"})
	if !strings.Contains(string(a["profile"].Data), "ACGT\t3") {
		t.Fatalf("profile = %q", a["profile"].Data)
	}
	b := runTool(t, "kmer_profile", map[string]Dataset{"input": {Data: []byte("GGGGGGGGGG")}}, map[string]string{"k": "4"})
	self := runTool(t, "kmer_distance", map[string]Dataset{"a": a["profile"], "b": a["profile"]}, nil)
	if !strings.Contains(string(self["report"].Data), "cosine_distance=0.000000") {
		t.Fatalf("self distance = %q", self["report"].Data)
	}
	far := runTool(t, "kmer_distance", map[string]Dataset{"a": a["profile"], "b": b["profile"]}, nil)
	if !strings.Contains(string(far["report"].Data), "cosine_distance=1.000000") {
		t.Fatalf("far distance = %q", far["report"].Data)
	}
	runToolErr(t, "kmer_distance", map[string]Dataset{"a": {Data: []byte("garbage-no-tab")}, "b": b["profile"]}, nil)
}

func TestToolLineageClassifyAndReport(t *testing.T) {
	rng := simclock.Stream(5, "tools-test")
	g1, _ := synth.Genome(rng, 1500)
	g2, _ := synth.Genome(rng, 1500)
	lineages := fastaDS(fasta.Record{ID: "L1", Seq: g1}, fasta.Record{ID: "L2", Seq: g2})
	out := runTool(t, "pangolin_classify", map[string]Dataset{
		"genome": {Data: []byte(g1)}, "lineages": lineages,
	}, nil)
	if !strings.Contains(string(out["assignment"].Data), "lineage=L1") {
		t.Fatalf("assignment = %q", out["assignment"].Data)
	}
	rep := runTool(t, "lineage_report", map[string]Dataset{"assignment": out["assignment"]}, nil)
	if !strings.Contains(string(rep["report"].Data), "assignment: lineage=L1") {
		t.Fatalf("report = %q", rep["report"].Data)
	}
	runToolErr(t, "lineage_report", map[string]Dataset{"assignment": {Data: []byte("  ")}}, nil)
}

func TestToolFastaFormat(t *testing.T) {
	out := runTool(t, "fasta_format", map[string]Dataset{"input": {Data: []byte("ACGT\n")}},
		map[string]string{"id": "genome1", "description": "test"})
	recs, err := fasta.ReadString(string(out["output"].Data))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].ID != "genome1" || recs[0].Seq != "ACGT" || recs[0].Description != "test" {
		t.Fatalf("rec = %+v", recs[0])
	}
}

func TestToolPhyloPlacement(t *testing.T) {
	rng := simclock.Stream(6, "tools-test2")
	g1, _ := synth.Genome(rng, 1200)
	g2, _ := synth.Genome(rng, 1200)
	out := runTool(t, "phylo_placement", map[string]Dataset{
		"genome":   fastaDS(fasta.Record{ID: "query", Seq: g1}),
		"lineages": fastaDS(fasta.Record{ID: "L1", Seq: g1}, fasta.Record{ID: "L2", Seq: g2}),
	}, nil)
	tree := string(out["tree"].Data)
	if !strings.HasSuffix(tree, ";") || !strings.Contains(tree, "query:") {
		t.Fatalf("tree = %q", tree)
	}
}

func TestToolSummaryAndArchive(t *testing.T) {
	sum := runTool(t, "summary_report", map[string]Dataset{
		"b_second": {Data: []byte("two")},
		"a_first":  {Data: []byte("one")},
	}, nil)
	rep := string(sum["report"].Data)
	if strings.Index(rep, "a_first") > strings.Index(rep, "b_second") {
		t.Fatalf("sections not sorted: %q", rep)
	}
	arc := runTool(t, "archive_outputs", map[string]Dataset{
		"x": {Data: []byte("1234")},
		"y": {Data: []byte("56")},
	}, nil)
	if !strings.Contains(string(arc["archive"].Data), "archive: 2 entries, 6 bytes") {
		t.Fatalf("archive = %q", arc["archive"].Data)
	}
}

func TestToolFastQCAndMultiQC(t *testing.T) {
	rng := simclock.Stream(7, "tools-test3")
	tmpl, _ := synth.Genome(rng, 500)
	reads, _ := synth.Reads(rng, tmpl, synth.ReadsOptions{Count: 50, Length: 80, ErrorRate: 0.01})
	qc1 := runTool(t, "fastqc", map[string]Dataset{"input": fastqDS(reads)}, nil)
	if !strings.Contains(string(qc1["report"].Data), "reads=50") {
		t.Fatalf("fastqc = %q", qc1["report"].Data)
	}
	multi := runTool(t, "multiqc", map[string]Dataset{"r1": qc1["report"], "r2": qc1["report"]}, nil)
	if !strings.Contains(string(multi["report"].Data), "multiqc over 2 reports") {
		t.Fatalf("multiqc = %q", multi["report"].Data)
	}
	runToolErr(t, "fastqc", map[string]Dataset{"input": {Data: []byte("@broken\n")}}, nil)
}

func TestToolCutadapt(t *testing.T) {
	reads := []fastq.Read{
		{ID: "r1", Seq: "ACGTACGTAGATCGGAAGAGCC", Qual: strings.Repeat("I", 22)},
		{ID: "r2", Seq: "TTTTTTTTTT", Qual: strings.Repeat("I", 10)},
	}
	out := runTool(t, "cutadapt", map[string]Dataset{"input": fastqDS(reads)}, nil)
	trimmed, err := fastq.ParseString(string(out["output"].Data))
	if err != nil {
		t.Fatal(err)
	}
	if trimmed[0].Seq != "ACGTACGT" {
		t.Fatalf("trimmed = %q", trimmed[0].Seq)
	}
	if trimmed[1].Seq != "TTTTTTTTTT" {
		t.Fatalf("untouched read changed: %q", trimmed[1].Seq)
	}
	if !strings.Contains(string(out["report"].Data), "input=2 trimmed=1 kept=2") {
		t.Fatalf("report = %q", out["report"].Data)
	}
}

func TestToolQualityTrim(t *testing.T) {
	reads := []fastq.Read{{ID: "r", Seq: "ACGTACGT", Qual: "IIII####"}}
	out := runTool(t, "quality_trim", map[string]Dataset{"input": fastqDS(reads)}, nil)
	trimmed, _ := fastq.ParseString(string(out["output"].Data))
	if trimmed[0].Seq != "ACGT" {
		t.Fatalf("trimmed = %q", trimmed[0].Seq)
	}
	// Fully bad reads are dropped entirely.
	bad := []fastq.Read{{ID: "x", Seq: "ACGT", Qual: "####"}}
	out2 := runTool(t, "quality_trim", map[string]Dataset{"input": fastqDS(bad)}, nil)
	kept, _ := fastq.ParseString(string(out2["output"].Data))
	if len(kept) != 0 {
		t.Fatalf("kept = %d reads", len(kept))
	}
}
