// Package synth generates synthetic bioinformatics data — random genomes,
// mutated isolates with their VCFs, and error-bearing sequencing reads —
// standing in for the paper's SRA downloads and SARS-CoV-2 variant
// datasets, which are not available offline.
package synth

import (
	"errors"
	"fmt"

	"spotverse/internal/bioinf/fastq"
	"spotverse/internal/bioinf/vcf"
	"spotverse/internal/simclock"
)

// Errors returned by the generators.
var (
	ErrBadLength = errors.New("synth: length must be positive")
	ErrBadCount  = errors.New("synth: count must be positive")
	ErrBadRate   = errors.New("synth: rate must be in [0, 1]")
)

const bases = "ACGT"

// Genome generates a random genome of the given length.
func Genome(rng *simclock.RNG, length int) (string, error) {
	if length <= 0 {
		return "", ErrBadLength
	}
	out := make([]byte, length)
	for i := range out {
		out[i] = bases[rng.Intn(4)]
	}
	return string(out), nil
}

// Mutate produces an isolate of the reference plus the VCF describing its
// differences. subRate is the per-base substitution probability; indelRate
// the per-base probability of starting a short (1-3bp) insertion or
// deletion.
func Mutate(rng *simclock.RNG, reference string, subRate, indelRate float64) (*vcf.File, error) {
	if subRate < 0 || subRate > 1 || indelRate < 0 || indelRate > 1 {
		return nil, ErrBadRate
	}
	f := &vcf.File{Meta: []string{
		"##fileformat=VCFv4.2",
		"##source=spotverse-synth",
	}}
	i := 0
	for i < len(reference) {
		switch {
		case rng.Bool(subRate):
			ref := reference[i]
			alt := ref
			for alt == ref {
				alt = bases[rng.Intn(4)]
			}
			f.Variants = append(f.Variants, vcf.Variant{
				Chrom:  "chr1",
				Pos:    i + 1,
				ID:     fmt.Sprintf("sub%d", i+1),
				Ref:    string(ref),
				Alt:    string(alt),
				Qual:   rng.Uniform(30, 90),
				Filter: "PASS",
			})
			i++
		case rng.Bool(indelRate):
			n := 1 + rng.Intn(3)
			if rng.Bool(0.5) && i+n < len(reference) {
				// Deletion of n bases after the anchor base.
				f.Variants = append(f.Variants, vcf.Variant{
					Chrom:  "chr1",
					Pos:    i + 1,
					ID:     fmt.Sprintf("del%d", i+1),
					Ref:    reference[i : i+n+1],
					Alt:    reference[i : i+1],
					Qual:   rng.Uniform(30, 90),
					Filter: "PASS",
				})
				i += n + 1
			} else {
				// Insertion of n bases after the anchor base.
				ins := make([]byte, n)
				for j := range ins {
					ins[j] = bases[rng.Intn(4)]
				}
				f.Variants = append(f.Variants, vcf.Variant{
					Chrom:  "chr1",
					Pos:    i + 1,
					ID:     fmt.Sprintf("ins%d", i+1),
					Ref:    reference[i : i+1],
					Alt:    reference[i:i+1] + string(ins),
					Qual:   rng.Uniform(30, 90),
					Filter: "PASS",
				})
				i++
			}
		default:
			i++
		}
	}
	return f, nil
}

// ReadsOptions tunes read generation.
type ReadsOptions struct {
	// Count is the number of reads.
	Count int
	// Length is the read length.
	Length int
	// ErrorRate is the per-base sequencing error probability.
	ErrorRate float64
}

// Reads samples error-bearing reads uniformly from the template sequence.
// Base quality correlates with whether the base was corrupted, like real
// basecallers: wrong bases tend to carry lower Phred scores.
func Reads(rng *simclock.RNG, template string, opts ReadsOptions) ([]fastq.Read, error) {
	if opts.Count <= 0 {
		return nil, ErrBadCount
	}
	if opts.Length <= 0 || opts.Length > len(template) {
		return nil, fmt.Errorf("%w: read length %d vs template %d", ErrBadLength, opts.Length, len(template))
	}
	if opts.ErrorRate < 0 || opts.ErrorRate > 1 {
		return nil, ErrBadRate
	}
	out := make([]fastq.Read, 0, opts.Count)
	for i := 0; i < opts.Count; i++ {
		start := rng.Intn(len(template) - opts.Length + 1)
		s := []byte(template[start : start+opts.Length])
		q := make([]byte, len(s))
		for j := range s {
			if rng.Bool(opts.ErrorRate) {
				orig := s[j]
				for s[j] == orig {
					s[j] = bases[rng.Intn(4)]
				}
				q[j] = byte(fastq.PhredOffset + 2 + rng.Intn(14)) // Q2-Q15
			} else {
				q[j] = byte(fastq.PhredOffset + 28 + rng.Intn(12)) // Q28-Q39
			}
		}
		out = append(out, fastq.Read{ID: fmt.Sprintf("read-%06d", i), Seq: string(s), Qual: string(q)})
	}
	return out, nil
}
