package galaxy

// This file defines the paper's two Galaxy workloads as workflows
// (Section 5.1.1). Input dataset names expected by each workflow are
// documented on its constructor.

// wfInput wires a step input to a workflow-level dataset.
func wfInput(name string) InputRef { return InputRef{Workflow: name} }

// stepOut wires a step input to a prior step's output.
func stepOut(step, output string) InputRef { return InputRef{Step: step, Output: output} }

// GenomeReconstructionWorkflow is the paper's Galaxy-specific standard
// workload: a 23-step pipeline that reconstructs a viral genome from a
// VCF of nucleotide variations against a SARS-CoV-2-like reference and
// classifies it with a Pangolin-like tool.
//
// Workflow inputs: "reference" (single-record FASTA), "variants" (VCF),
// "lineages" (multi-record FASTA of lineage references).
func GenomeReconstructionWorkflow() *Workflow {
	return &Workflow{
		Name: "genome-reconstruction",
		Steps: []Step{
			// 1-2: import and validate inputs.
			{ID: "s01_ref_validate", Tool: "fasta_validate", Inputs: map[string]InputRef{"input": wfInput("reference")}},
			{ID: "s02_vcf_validate", Tool: "vcf_validate", Inputs: map[string]InputRef{"input": wfInput("variants")}},
			// 3-5: variant hygiene.
			{ID: "s03_vcf_stats_raw", Tool: "vcf_stats", Inputs: map[string]InputRef{"input": stepOut("s02_vcf_validate", "output")}},
			{ID: "s04_vcf_sort", Tool: "vcf_sort", Inputs: map[string]InputRef{"input": stepOut("s02_vcf_validate", "output")}},
			{ID: "s05_vcf_dedupe", Tool: "vcf_dedupe", Inputs: map[string]InputRef{"input": stepOut("s04_vcf_sort", "output")}},
			// 6-7: filtering.
			{ID: "s06_filter_qual", Tool: "vcf_filter_qual", Inputs: map[string]InputRef{"input": stepOut("s05_vcf_dedupe", "output")}, Params: map[string]string{"min_qual": "25"}},
			{ID: "s07_filter_pass", Tool: "vcf_filter_pass", Inputs: map[string]InputRef{"input": stepOut("s06_filter_qual", "output")}},
			// 8-9: class splits.
			{ID: "s08_snps", Tool: "vcf_select_snps", Inputs: map[string]InputRef{"input": stepOut("s07_filter_pass", "output")}},
			{ID: "s09_indels", Tool: "vcf_select_indels", Inputs: map[string]InputRef{"input": stepOut("s07_filter_pass", "output")}},
			// 10-11: per-class stats.
			{ID: "s10_snp_stats", Tool: "vcf_stats", Inputs: map[string]InputRef{"input": stepOut("s08_snps", "output")}},
			{ID: "s11_indel_stats", Tool: "vcf_stats", Inputs: map[string]InputRef{"input": stepOut("s09_indels", "output")}},
			// 12: reconstruction.
			{ID: "s12_consensus", Tool: "consensus_builder", Inputs: map[string]InputRef{
				"reference": stepOut("s01_ref_validate", "output"),
				"variants":  stepOut("s07_filter_pass", "output"),
			}},
			// 13-15: consensus QC.
			{ID: "s13_gc", Tool: "gc_report", Inputs: map[string]InputRef{"input": stepOut("s12_consensus", "consensus")}},
			{ID: "s14_ncheck", Tool: "n_content_check", Inputs: map[string]InputRef{"input": stepOut("s12_consensus", "consensus")}, Params: map[string]string{"max_n": "0.1"}},
			{ID: "s15_kmer_cons", Tool: "kmer_profile", Inputs: map[string]InputRef{"input": stepOut("s12_consensus", "consensus")}, Params: map[string]string{"k": "8"}},
			// 16-17: reference comparison.
			{ID: "s16_kmer_ref", Tool: "kmer_profile", Inputs: map[string]InputRef{"input": wfInput("reference_raw")}, Params: map[string]string{"k": "8"}},
			{ID: "s17_distance", Tool: "kmer_distance", Inputs: map[string]InputRef{
				"a": stepOut("s15_kmer_cons", "profile"),
				"b": stepOut("s16_kmer_ref", "profile"),
			}},
			// 18-19: lineage assignment.
			{ID: "s18_classify", Tool: "pangolin_classify", Inputs: map[string]InputRef{
				"genome":   stepOut("s12_consensus", "consensus"),
				"lineages": wfInput("lineages"),
			}},
			{ID: "s19_lineage_report", Tool: "lineage_report", Inputs: map[string]InputRef{"assignment": stepOut("s18_classify", "assignment")}},
			// 20-21: FASTA packaging and phylogenetic placement.
			{ID: "s20_fasta", Tool: "fasta_format", Inputs: map[string]InputRef{"input": stepOut("s12_consensus", "consensus")}, Params: map[string]string{"id": "reconstructed", "description": "consensus genome"}},
			{ID: "s21_placement", Tool: "phylo_placement", Inputs: map[string]InputRef{
				"genome":   stepOut("s20_fasta", "output"),
				"lineages": wfInput("lineages"),
			}},
			// 22-23: summary and archive.
			{ID: "s22_summary", Tool: "summary_report", Inputs: map[string]InputRef{
				"raw_stats":    stepOut("s03_vcf_stats_raw", "report"),
				"snp_stats":    stepOut("s10_snp_stats", "report"),
				"indel_stats":  stepOut("s11_indel_stats", "report"),
				"consensus":    stepOut("s12_consensus", "report"),
				"gc":           stepOut("s13_gc", "report"),
				"n_content":    stepOut("s14_ncheck", "report"),
				"ref_distance": stepOut("s17_distance", "report"),
				"lineage":      stepOut("s19_lineage_report", "report"),
			}},
			{ID: "s23_archive", Tool: "archive_outputs", Inputs: map[string]InputRef{
				"summary": stepOut("s22_summary", "report"),
				"genome":  stepOut("s20_fasta", "output"),
				"tree":    stepOut("s21_placement", "tree"),
			}},
		},
	}
}

// NGSPreprocessingShardWorkflow is the unit of the paper's checkpoint
// workload: quality assessment, adapter trimming, quality trimming, and a
// re-check for one shard of the segmented FastQC dataset. The workload
// layer runs one invocation per shard and records shard completion in
// DynamoDB, which is what makes the whole workload resumable.
//
// Workflow inputs: "reads" (FASTQ shard).
func NGSPreprocessingShardWorkflow() *Workflow {
	return &Workflow{
		Name: "ngs-preprocessing-shard",
		Steps: []Step{
			{ID: "p1_fastqc_pre", Tool: "fastqc", Inputs: map[string]InputRef{"input": wfInput("reads")}},
			{ID: "p2_cutadapt", Tool: "cutadapt", Inputs: map[string]InputRef{"input": wfInput("reads")}},
			{ID: "p3_qtrim", Tool: "quality_trim", Inputs: map[string]InputRef{"input": stepOut("p2_cutadapt", "output")}},
			{ID: "p4_fastqc_post", Tool: "fastqc", Inputs: map[string]InputRef{"input": stepOut("p3_qtrim", "output")}},
			{ID: "p5_multiqc", Tool: "multiqc", Inputs: map[string]InputRef{
				"pre":     stepOut("p1_fastqc_pre", "report"),
				"post":    stepOut("p4_fastqc_post", "report"),
				"trimlog": stepOut("p2_cutadapt", "report"),
			}},
		},
	}
}
