package galaxy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"spotverse/internal/bioinf/fasta"
	"spotverse/internal/bioinf/fastq"
	"spotverse/internal/bioinf/lineage"
	"spotverse/internal/bioinf/phylo"
	"spotverse/internal/bioinf/qc"
	"spotverse/internal/bioinf/seq"
	"spotverse/internal/bioinf/variant"
	"spotverse/internal/bioinf/vcf"
)

// StandardTools returns the tool suite the paper's workloads need. Every
// tool does real work via internal/bioinf; none are stubs.
func StandardTools() []Tool {
	return []Tool{
		toolFastaValidate(),
		toolFastaStats(),
		toolVCFParseValidate(),
		toolVCFStats(),
		toolVCFSort(),
		toolVCFDedupe(),
		toolVCFFilterQual(),
		toolVCFFilterPass(),
		toolVCFSelectSNPs(),
		toolVCFSelectIndels(),
		toolConsensus(),
		toolGCReport(),
		toolNContent(),
		toolKmerProfile(),
		toolKmerDistance(),
		toolLineageClassify(),
		toolLineageReport(),
		toolFastaFormat(),
		toolPhyloPlacement(),
		toolSummaryReport(),
		toolArchive(),
		toolFastQC(),
		toolMultiQC(),
		toolCutadapt(),
		toolQualityTrim(),
	}
}

// InstallStandardTools installs the suite as an admin user.
func InstallStandardTools(g *Instance, admin string) error {
	for _, t := range StandardTools() {
		if err := g.InstallTool(admin, t); err != nil {
			return err
		}
	}
	return nil
}

func ds(name, format string, data []byte) Dataset {
	return Dataset{Name: name, Format: format, Data: data}
}

func txt(name, s string) Dataset { return ds(name, "txt", []byte(s)) }

func oneFasta(d Dataset) (fasta.Record, error) {
	recs, err := fasta.ReadString(string(d.Data))
	if err != nil {
		return fasta.Record{}, err
	}
	if len(recs) != 1 {
		return fasta.Record{}, fmt.Errorf("expected exactly 1 FASTA record, got %d", len(recs))
	}
	return recs[0], nil
}

func toolFastaValidate() Tool {
	return Tool{
		ID:          "fasta_validate",
		Description: "Validate a FASTA file and normalize line wrapping",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			recs, err := fasta.ReadString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			if len(recs) == 0 {
				return nil, fmt.Errorf("fasta_validate: empty file")
			}
			return map[string]Dataset{"output": ds("validated.fasta", "fasta", []byte(fasta.String(recs)))}, nil
		},
	}
}

func toolFastaStats() Tool {
	return Tool{
		ID:          "fasta_stats",
		Description: "Sequence length and composition statistics",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			recs, err := fasta.ReadString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			var sb strings.Builder
			for _, r := range recs {
				fmt.Fprintf(&sb, "%s\tlen=%d\tgc=%.4f\n", r.ID, len(r.Seq), seq.GCContent(r.Seq))
			}
			return map[string]Dataset{"report": txt("fasta_stats.txt", sb.String())}, nil
		},
	}
}

func toolVCFParseValidate() Tool {
	return Tool{
		ID:          "vcf_validate",
		Description: "Parse and validate a VCF file",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			f, err := vcf.ParseString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			return map[string]Dataset{"output": ds("validated.vcf", "vcf", []byte(vcf.String(f)))}, nil
		},
	}
}

func toolVCFStats() Tool {
	return Tool{
		ID:          "vcf_stats",
		Description: "Variant counts by class",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			f, err := vcf.ParseString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			subs, ins, dels := 0, 0, 0
			for _, v := range f.Variants {
				switch {
				case len(v.Ref) == len(v.Alt):
					subs++
				case len(v.Ref) < len(v.Alt):
					ins++
				default:
					dels++
				}
			}
			report := fmt.Sprintf("total=%d subs=%d ins=%d dels=%d\n", len(f.Variants), subs, ins, dels)
			return map[string]Dataset{"report": txt("vcf_stats.txt", report)}, nil
		},
	}
}

func toolVCFSort() Tool {
	return Tool{
		ID:          "vcf_sort",
		Description: "Sort variants by position",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			f, err := vcf.ParseString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			f.SortByPosition()
			return map[string]Dataset{"output": ds("sorted.vcf", "vcf", []byte(vcf.String(f)))}, nil
		},
	}
}

func toolVCFDedupe() Tool {
	return Tool{
		ID:          "vcf_dedupe",
		Description: "Drop duplicate variants at the same position",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			f, err := vcf.ParseString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			seen := map[string]bool{}
			var kept []vcf.Variant
			for _, v := range f.Variants {
				key := v.Chrom + ":" + strconv.Itoa(v.Pos)
				if seen[key] {
					continue
				}
				seen[key] = true
				kept = append(kept, v)
			}
			f.Variants = kept
			return map[string]Dataset{"output": ds("dedup.vcf", "vcf", []byte(vcf.String(f)))}, nil
		},
	}
}

func vcfFilter(id, desc string, keep func(vcf.Variant, map[string]string) bool) Tool {
	return Tool{
		ID:          id,
		Description: desc,
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			f, err := vcf.ParseString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			var kept []vcf.Variant
			for _, v := range f.Variants {
				if keep(v, params) {
					kept = append(kept, v)
				}
			}
			f.Variants = kept
			return map[string]Dataset{"output": ds("filtered.vcf", "vcf", []byte(vcf.String(f)))}, nil
		},
	}
}

func toolVCFFilterQual() Tool {
	return vcfFilter("vcf_filter_qual", "Drop variants below a QUAL threshold",
		func(v vcf.Variant, params map[string]string) bool {
			min, err := strconv.ParseFloat(params["min_qual"], 64)
			if err != nil {
				min = 20
			}
			return v.Qual >= min
		})
}

func toolVCFFilterPass() Tool {
	return vcfFilter("vcf_filter_pass", "Keep PASS variants only",
		func(v vcf.Variant, _ map[string]string) bool {
			return v.Filter == "PASS" || v.Filter == "." || v.Filter == ""
		})
}

func toolVCFSelectSNPs() Tool {
	return vcfFilter("vcf_select_snps", "Keep substitutions only",
		func(v vcf.Variant, _ map[string]string) bool { return len(v.Ref) == len(v.Alt) })
}

func toolVCFSelectIndels() Tool {
	return vcfFilter("vcf_select_indels", "Keep insertions and deletions only",
		func(v vcf.Variant, _ map[string]string) bool { return len(v.Ref) != len(v.Alt) })
}

func toolConsensus() Tool {
	return Tool{
		ID:          "consensus_builder",
		Description: "Apply a VCF to a reference to reconstruct the genome",
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			ref, err := oneFasta(in["reference"])
			if err != nil {
				return nil, err
			}
			f, err := vcf.ParseString(string(in["variants"].Data))
			if err != nil {
				return nil, err
			}
			minQual, _ := strconv.ParseFloat(params["min_qual"], 64)
			cons, stats, err := variant.Consensus(ref.Seq, f, variant.Options{MinQual: minQual})
			if err != nil {
				return nil, err
			}
			report := fmt.Sprintf("applied=%d subs=%d ins=%d dels=%d\n",
				stats.Applied, stats.Substitutions, stats.Insertions, stats.Deletions)
			return map[string]Dataset{
				"consensus": txt("consensus.seq", cons),
				"report":    txt("consensus_report.txt", report),
			}, nil
		},
	}
}

func toolGCReport() Tool {
	return Tool{
		ID:          "gc_report",
		Description: "GC content of a raw sequence",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			s := string(in["input"].Data)
			return map[string]Dataset{"report": txt("gc.txt", fmt.Sprintf("gc=%.4f len=%d\n", seq.GCContent(s), len(s)))}, nil
		},
	}
}

func toolNContent() Tool {
	return Tool{
		ID:          "n_content_check",
		Description: "Fail if ambiguous base fraction exceeds max_n",
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			s := string(in["input"].Data)
			maxN, err := strconv.ParseFloat(params["max_n"], 64)
			if err != nil {
				maxN = 0.05
			}
			n := 0
			for i := 0; i < len(s); i++ {
				if s[i] == 'N' || s[i] == 'n' {
					n++
				}
			}
			frac := 0.0
			if len(s) > 0 {
				frac = float64(n) / float64(len(s))
			}
			if frac > maxN {
				return nil, fmt.Errorf("n_content_check: %.4f > %.4f", frac, maxN)
			}
			return map[string]Dataset{"report": txt("n_content.txt", fmt.Sprintf("n_fraction=%.4f\n", frac))}, nil
		},
	}
}

func toolKmerProfile() Tool {
	return Tool{
		ID:          "kmer_profile",
		Description: "Count k-mers of a raw sequence",
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			k, err := strconv.Atoi(params["k"])
			if err != nil || k <= 0 {
				k = 8
			}
			prof, err := seq.KmerProfile(string(in["input"].Data), k)
			if err != nil {
				return nil, err
			}
			keys := make([]string, 0, len(prof))
			for kmer := range prof {
				keys = append(keys, kmer)
			}
			sort.Strings(keys)
			var sb strings.Builder
			for _, kmer := range keys {
				fmt.Fprintf(&sb, "%s\t%d\n", kmer, prof[kmer])
			}
			return map[string]Dataset{"profile": txt("kmers.tsv", sb.String())}, nil
		},
	}
}

func parseProfile(d Dataset) (map[string]int, error) {
	out := map[string]int{}
	for _, line := range strings.Split(string(d.Data), "\n") {
		if line == "" {
			continue
		}
		kmer, count, found := strings.Cut(line, "\t")
		if !found {
			return nil, fmt.Errorf("bad profile line %q", line)
		}
		n, err := strconv.Atoi(count)
		if err != nil {
			return nil, fmt.Errorf("bad profile count %q: %w", count, err)
		}
		out[kmer] = n
	}
	return out, nil
}

func toolKmerDistance() Tool {
	return Tool{
		ID:          "kmer_distance",
		Description: "Cosine distance between two k-mer profiles",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			a, err := parseProfile(in["a"])
			if err != nil {
				return nil, err
			}
			b, err := parseProfile(in["b"])
			if err != nil {
				return nil, err
			}
			d := seq.CosineDistance(a, b)
			return map[string]Dataset{"report": txt("distance.txt", fmt.Sprintf("cosine_distance=%.6f\n", d))}, nil
		},
	}
}

// lineageRefsFromFasta builds a classifier from a multi-FASTA of named
// lineage references.
func lineageRefsFromFasta(d Dataset, k int) (*lineage.Classifier, error) {
	recs, err := fasta.ReadString(string(d.Data))
	if err != nil {
		return nil, err
	}
	c := lineage.NewClassifier(k)
	for _, r := range recs {
		if err := c.AddLineage(r.ID, r.Seq); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func toolLineageClassify() Tool {
	return Tool{
		ID:          "pangolin_classify",
		Description: "Assign a genome to its nearest lineage (Pangolin-like)",
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			k, err := strconv.Atoi(params["k"])
			if err != nil || k <= 0 {
				k = lineage.DefaultK
			}
			c, err := lineageRefsFromFasta(in["lineages"], k)
			if err != nil {
				return nil, err
			}
			got, err := c.Classify(string(in["genome"].Data))
			if err != nil {
				return nil, err
			}
			report := fmt.Sprintf("lineage=%s\tdistance=%.6f\tconfidence=%.4f\n", got.Lineage, got.Distance, got.Confidence)
			return map[string]Dataset{"assignment": txt("lineage.tsv", report)}, nil
		},
	}
}

func toolLineageReport() Tool {
	return Tool{
		ID:          "lineage_report",
		Description: "Human-readable lineage summary",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			raw := strings.TrimSpace(string(in["assignment"].Data))
			if raw == "" {
				return nil, fmt.Errorf("lineage_report: empty assignment")
			}
			return map[string]Dataset{"report": txt("lineage_report.txt", "assignment: "+raw+"\n")}, nil
		},
	}
}

func toolFastaFormat() Tool {
	return Tool{
		ID:          "fasta_format",
		Description: "Wrap a raw sequence into a FASTA record",
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			id := params["id"]
			if id == "" {
				id = "sequence"
			}
			rec := fasta.Record{ID: id, Description: params["description"], Seq: strings.TrimSpace(string(in["input"].Data))}
			return map[string]Dataset{"output": ds(id+".fasta", "fasta", []byte(fasta.String([]fasta.Record{rec})))}, nil
		},
	}
}

func toolPhyloPlacement() Tool {
	return Tool{
		ID:          "phylo_placement",
		Description: "Neighbour-joining placement of a genome among references",
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			k, err := strconv.Atoi(params["k"])
			if err != nil || k <= 0 {
				k = 8
			}
			refs, err := fasta.ReadString(string(in["lineages"].Data))
			if err != nil {
				return nil, err
			}
			genome, err := oneFasta(in["genome"])
			if err != nil {
				return nil, err
			}
			names := []string{genome.ID}
			seqs := []string{genome.Seq}
			for _, r := range refs {
				names = append(names, r.ID)
				seqs = append(seqs, r.Seq)
			}
			tree, err := phylo.BuildFromSequences(names, seqs, k)
			if err != nil {
				return nil, err
			}
			return map[string]Dataset{"tree": ds("placement.nwk", "newick", []byte(tree.Newick()))}, nil
		},
	}
}

func toolSummaryReport() Tool {
	return Tool{
		ID:          "summary_report",
		Description: "Concatenate analysis reports",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			names := make([]string, 0, len(in))
			for name := range in {
				names = append(names, name)
			}
			sort.Strings(names)
			var sb strings.Builder
			for _, name := range names {
				fmt.Fprintf(&sb, "== %s ==\n%s\n", name, strings.TrimSpace(string(in[name].Data)))
			}
			return map[string]Dataset{"report": txt("summary.txt", sb.String())}, nil
		},
	}
}

func toolArchive() Tool {
	return Tool{
		ID:          "archive_outputs",
		Description: "Bundle outputs into one archive dataset",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			names := make([]string, 0, len(in))
			total := 0
			for name, d := range in {
				names = append(names, name)
				total += len(d.Data)
			}
			sort.Strings(names)
			var sb strings.Builder
			fmt.Fprintf(&sb, "archive: %d entries, %d bytes\n", len(in), total)
			for _, name := range names {
				fmt.Fprintf(&sb, "--- %s (%d bytes) ---\n", name, len(in[name].Data))
				sb.Write(in[name].Data)
				sb.WriteByte('\n')
			}
			return map[string]Dataset{"archive": txt("archive.txt", sb.String())}, nil
		},
	}
}

func toolFastQC() Tool {
	return Tool{
		ID:          "fastqc",
		Description: "Per-file read quality report (FastQC-like)",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			reads, err := fastq.ParseString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			rep, err := qc.Analyze(in["input"].Name, reads)
			if err != nil {
				return nil, err
			}
			report := fmt.Sprintf("name=%s reads=%d meanLen=%.1f meanQ=%.2f q20=%.4f gc=%.4f verdict=%s\n",
				rep.Name, rep.ReadCount, rep.MeanLength, rep.MeanQuality, rep.Q20Fraction, rep.GCFraction, rep.QualityVerdict)
			return map[string]Dataset{"report": txt("fastqc.txt", report)}, nil
		},
	}
}

func toolMultiQC() Tool {
	return Tool{
		ID:          "multiqc",
		Description: "Aggregate FastQC reports (MultiQC-like)",
		Run: func(in map[string]Dataset, _ map[string]string) (map[string]Dataset, error) {
			names := make([]string, 0, len(in))
			for name := range in {
				names = append(names, name)
			}
			sort.Strings(names)
			var sb strings.Builder
			fmt.Fprintf(&sb, "multiqc over %d reports\n", len(in))
			for _, name := range names {
				sb.WriteString(strings.TrimSpace(string(in[name].Data)) + "\n")
			}
			return map[string]Dataset{"report": txt("multiqc.txt", sb.String())}, nil
		},
	}
}

func toolCutadapt() Tool {
	return Tool{
		ID:          "cutadapt",
		Description: "Trim 3' adapters from reads (Cutadapt-like)",
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			adapter := params["adapter"]
			if adapter == "" {
				adapter = "AGATCGGAAGAG" // Illumina TruSeq
			}
			mm, err := strconv.Atoi(params["max_mismatch"])
			if err != nil {
				mm = 1
			}
			reads, err := fastq.ParseString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			out := make([]fastq.Read, 0, len(reads))
			trimmed := 0
			for _, r := range reads {
				t, err := seq.TrimAdapter(r, adapter, mm, 3)
				if err != nil {
					return nil, err
				}
				if len(t.Seq) != len(r.Seq) {
					trimmed++
				}
				if len(t.Seq) > 0 {
					out = append(out, t)
				}
			}
			return map[string]Dataset{
				"output": ds("trimmed.fastq", "fastq", []byte(fastq.String(out))),
				"report": txt("cutadapt.txt", fmt.Sprintf("input=%d trimmed=%d kept=%d\n", len(reads), trimmed, len(out))),
			}, nil
		},
	}
}

func toolQualityTrim() Tool {
	return Tool{
		ID:          "quality_trim",
		Description: "Trim low-quality 3' tails",
		Run: func(in map[string]Dataset, params map[string]string) (map[string]Dataset, error) {
			threshold, err := strconv.Atoi(params["threshold"])
			if err != nil {
				threshold = 20
			}
			reads, err := fastq.ParseString(string(in["input"].Data))
			if err != nil {
				return nil, err
			}
			out := make([]fastq.Read, 0, len(reads))
			for _, r := range reads {
				t := seq.QualityTrim(r, threshold)
				if len(t.Seq) > 0 {
					out = append(out, t)
				}
			}
			return map[string]Dataset{"output": ds("qtrimmed.fastq", "fastq", []byte(fastq.String(out)))}, nil
		},
	}
}
