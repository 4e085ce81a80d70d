// Package qc implements FastQC-style per-file quality reports, the
// quality-assessment steps of the NGS Data Preprocessing workflow.
package qc

import (
	"errors"
	"fmt"

	"spotverse/internal/bioinf/fastq"
)

// ErrNoReads is returned when a report is requested for zero reads.
var ErrNoReads = errors.New("qc: no reads")

// Verdict grades a quality module, FastQC-style.
type Verdict string

// Verdicts.
const (
	VerdictPass Verdict = "pass"
	VerdictWarn Verdict = "warn"
	VerdictFail Verdict = "fail"
)

// Report is a FastQC-like summary of one read set.
type Report struct {
	// Name labels the input (usually the file/shard name).
	Name string
	// ReadCount is the number of reads analysed.
	ReadCount int
	// MeanLength is the average read length.
	MeanLength float64
	// MeanQuality is the average Phred score over all bases.
	MeanQuality float64
	// PerPositionQuality holds mean Phred per cycle, up to the longest
	// read.
	PerPositionQuality []float64
	// GCFraction is the overall GC content.
	GCFraction float64
	// Q20Fraction is the fraction of bases at or above Q20.
	Q20Fraction float64
	// QualityVerdict grades mean base quality.
	QualityVerdict Verdict
	// GCVerdict grades GC content (expected ~0.4-0.6).
	GCVerdict Verdict
}

// Analyze builds a report for one read set.
func Analyze(name string, reads []fastq.Read) (*Report, error) {
	if len(reads) == 0 {
		return nil, fmt.Errorf("analyze %q: %w", name, ErrNoReads)
	}
	maxLen := 0
	for _, r := range reads {
		if len(r.Seq) > maxLen {
			maxLen = len(r.Seq)
		}
	}
	posSum := make([]float64, maxLen)
	posCount := make([]int, maxLen)
	var (
		totalBases, q20, gcBases int
		lenSum, qualSum          float64
	)
	for _, r := range reads {
		lenSum += float64(len(r.Seq))
		for i, q := range r.QualityScores() {
			posSum[i] += float64(q)
			posCount[i]++
			qualSum += float64(q)
			totalBases++
			if q >= 20 {
				q20++
			}
		}
		for i := 0; i < len(r.Seq); i++ {
			switch r.Seq[i] {
			case 'G', 'g', 'C', 'c':
				gcBases++
			}
		}
	}
	rep := &Report{
		Name:               name,
		ReadCount:          len(reads),
		MeanLength:         lenSum / float64(len(reads)),
		PerPositionQuality: make([]float64, maxLen),
	}
	if totalBases > 0 {
		rep.MeanQuality = qualSum / float64(totalBases)
		rep.Q20Fraction = float64(q20) / float64(totalBases)
		rep.GCFraction = float64(gcBases) / float64(totalBases)
	}
	for i := range posSum {
		if posCount[i] > 0 {
			rep.PerPositionQuality[i] = posSum[i] / float64(posCount[i])
		}
	}
	rep.QualityVerdict = gradeQuality(rep.MeanQuality)
	rep.GCVerdict = gradeGC(rep.GCFraction)
	return rep, nil
}

func gradeQuality(mean float64) Verdict {
	switch {
	case mean >= 28:
		return VerdictPass
	case mean >= 20:
		return VerdictWarn
	default:
		return VerdictFail
	}
}

func gradeGC(gc float64) Verdict {
	switch {
	case gc >= 0.35 && gc <= 0.65:
		return VerdictPass
	case gc >= 0.25 && gc <= 0.75:
		return VerdictWarn
	default:
		return VerdictFail
	}
}
