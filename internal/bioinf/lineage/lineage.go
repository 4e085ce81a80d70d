// Package lineage assigns genomes to named lineages by nearest-centroid
// classification over k-mer profiles — a Pangolin-like classifier for the
// genome-reconstruction workflow's final step.
package lineage

import (
	"errors"
	"fmt"
	"sort"

	"spotverse/internal/bioinf/seq"
)

// Errors returned by the classifier.
var (
	ErrNoLineages = errors.New("lineage: classifier has no reference lineages")
	ErrDupName    = errors.New("lineage: duplicate lineage name")
	ErrEmptySeq   = errors.New("lineage: empty sequence")
)

// DefaultK is the k-mer size used when none is given.
const DefaultK = 8

// Assignment is a classification result.
type Assignment struct {
	// Lineage is the winning lineage name.
	Lineage string
	// Distance is the cosine k-mer distance to the winner.
	Distance float64
	// Confidence in [0,1]: how decisively the winner beat the runner-up.
	Confidence float64
}

// Classifier holds reference lineage profiles.
type Classifier struct {
	k        int
	profiles map[string]map[string]int
	names    []string
}

// NewClassifier returns an empty classifier with k-mer size k (0 takes
// DefaultK).
func NewClassifier(k int) *Classifier {
	if k <= 0 {
		k = DefaultK
	}
	return &Classifier{k: k, profiles: make(map[string]map[string]int)}
}

// AddLineage registers a reference genome under a lineage name.
func (c *Classifier) AddLineage(name, genome string) error {
	if name == "" || genome == "" {
		return ErrEmptySeq
	}
	if _, ok := c.profiles[name]; ok {
		return fmt.Errorf("%w: %q", ErrDupName, name)
	}
	prof, err := seq.KmerProfile(genome, c.k)
	if err != nil {
		return fmt.Errorf("lineage %q: %w", name, err)
	}
	c.profiles[name] = prof
	c.names = append(c.names, name)
	sort.Strings(c.names)
	return nil
}

// Classify assigns the genome to its nearest lineage.
func (c *Classifier) Classify(genome string) (Assignment, error) {
	if len(c.profiles) == 0 {
		return Assignment{}, ErrNoLineages
	}
	if genome == "" {
		return Assignment{}, ErrEmptySeq
	}
	prof, err := seq.KmerProfile(genome, c.k)
	if err != nil {
		return Assignment{}, err
	}
	best, second := 2.0, 2.0
	winner := ""
	for _, name := range c.names {
		d := seq.CosineDistance(prof, c.profiles[name])
		switch {
		case d < best:
			second = best
			best, winner = d, name
		case d < second:
			second = d
		}
	}
	conf := 0.0
	if second > 0 {
		conf = (second - best) / second
	}
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	return Assignment{Lineage: winner, Distance: best, Confidence: conf}, nil
}
