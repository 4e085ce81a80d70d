// Package seq provides core sequence operations shared by the workflow
// tools: GC content, k-mer profiles and distances, adapter trimming
// (Cutadapt's job), and quality trimming.
package seq

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"spotverse/internal/bioinf/fastq"
)

// Errors returned by the package.
var (
	ErrBadK         = errors.New("seq: k must be positive")
	ErrEmptyAdapter = errors.New("seq: empty adapter")
)

// GCContent returns the fraction of G/C symbols, 0 for empty input.
func GCContent(s string) float64 {
	if len(s) == 0 {
		return 0
	}
	gc := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'G', 'g', 'C', 'c':
			gc++
		}
	}
	return float64(gc) / float64(len(s))
}

// KmerProfile counts canonical k-mers (k-mers containing non-ACGT symbols
// are skipped). The map keys are uppercase k-mers.
func KmerProfile(s string, k int) (map[string]int, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	out := make(map[string]int)
	up := strings.ToUpper(s)
	for i := 0; i+k <= len(up); i++ {
		kmer := up[i : i+k]
		if strings.ContainsAny(kmer, "NRYSWKMBDHV-U*") {
			continue
		}
		out[kmer]++
	}
	return out, nil
}

// CosineDistance returns 1 - cosine similarity between two k-mer
// profiles. Two empty profiles are at distance 0; one empty profile is at
// distance 1.
func CosineDistance(a, b map[string]int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	var dot, na, nb float64
	for k, va := range a {
		na += float64(va) * float64(va)
		if vb, ok := b[k]; ok {
			dot += float64(va) * float64(vb)
		}
	}
	for _, vb := range b {
		nb += float64(vb) * float64(vb)
	}
	return 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
}

// Hamming returns the number of mismatching positions between equal-length
// strings, or an error if the lengths differ.
func Hamming(a, b string) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("seq: hamming on lengths %d and %d", len(a), len(b))
	}
	d := 0
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			d++
		}
	}
	return d, nil
}

// TrimAdapter removes the adapter and everything after it from the read's
// 3' end, allowing maxMismatch mismatches in the adapter match (Cutadapt
// semantics, simplified). Partial adapter hits at the read end of at
// least minOverlap bases are also trimmed.
func TrimAdapter(r fastq.Read, adapter string, maxMismatch, minOverlap int) (fastq.Read, error) {
	if adapter == "" {
		return fastq.Read{}, ErrEmptyAdapter
	}
	if minOverlap <= 0 {
		minOverlap = 3
	}
	seq := r.Seq
	// Full-adapter scan.
	for i := 0; i+len(adapter) <= len(seq); i++ {
		d, err := Hamming(seq[i:i+len(adapter)], adapter)
		if err != nil {
			return fastq.Read{}, err
		}
		if d <= maxMismatch {
			return cut(r, i), nil
		}
	}
	// Partial adapter at the 3' end.
	for over := len(adapter) - 1; over >= minOverlap; over-- {
		start := len(seq) - over
		if start < 0 {
			continue
		}
		d, err := Hamming(seq[start:], adapter[:over])
		if err != nil {
			return fastq.Read{}, err
		}
		budget := maxMismatch * over / len(adapter)
		if d <= budget {
			return cut(r, start), nil
		}
	}
	return r, nil
}

func cut(r fastq.Read, at int) fastq.Read {
	return fastq.Read{ID: r.ID, Seq: r.Seq[:at], Qual: r.Qual[:at]}
}

// QualityTrim trims the read's 3' end using the Phred-threshold running-sum
// algorithm (BWA/Cutadapt style): scanning from the 3' end, it cuts at the
// position maximising the partial sum of (threshold - quality); reads whose
// suffixes are all above threshold are left untouched.
func QualityTrim(r fastq.Read, threshold int) fastq.Read {
	scores := r.QualityScores()
	bestIdx := len(scores)
	sum, maxSum := 0, 0
	for i := len(scores) - 1; i >= 0; i-- {
		sum += threshold - scores[i]
		if sum > maxSum {
			maxSum = sum
			bestIdx = i
		}
	}
	return cut(r, bestIdx)
}
