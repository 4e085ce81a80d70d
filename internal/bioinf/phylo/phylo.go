// Package phylo builds phylogenetic trees with the neighbour-joining
// algorithm over k-mer distance matrices and renders them in Newick
// format — the phylogenetic-placement step of the genome-reconstruction
// workflow.
package phylo

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"spotverse/internal/bioinf/seq"
)

// Errors returned by the package.
var (
	ErrTooFewTaxa  = errors.New("phylo: need at least 2 taxa")
	ErrBadMatrix   = errors.New("phylo: distance matrix not square")
	ErrDupTaxon    = errors.New("phylo: duplicate taxon name")
	ErrAsymmetric  = errors.New("phylo: distance matrix not symmetric")
	ErrNegativeDst = errors.New("phylo: negative distance")
)

// Node is a tree vertex. Leaves carry names; internal nodes have children.
type Node struct {
	Name     string
	Children []*Node
	// Length is the branch length to the parent.
	Length float64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Leaves returns the names of all leaves under the node, in tree order.
func (n *Node) Leaves() []string {
	if n.IsLeaf() {
		return []string{n.Name}
	}
	var out []string
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Newick renders the tree in Newick format with branch lengths.
func (n *Node) Newick() string {
	var sb strings.Builder
	n.writeNewick(&sb, true)
	sb.WriteByte(';')
	return sb.String()
}

func (n *Node) writeNewick(sb *strings.Builder, root bool) {
	if n.IsLeaf() {
		sb.WriteString(n.Name)
	} else {
		sb.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				sb.WriteByte(',')
			}
			c.writeNewick(sb, false)
		}
		sb.WriteByte(')')
		if n.Name != "" {
			sb.WriteString(n.Name)
		}
	}
	if !root {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(n.Length, 'f', 4, 64))
	}
}

// DistanceMatrix computes pairwise k-mer cosine distances between named
// sequences.
func DistanceMatrix(names []string, seqs []string, k int) ([][]float64, error) {
	if len(names) != len(seqs) {
		return nil, fmt.Errorf("phylo: %d names vs %d sequences", len(names), len(seqs))
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("%w: %q", ErrDupTaxon, n)
		}
		seen[n] = true
	}
	profiles := make([]map[string]int, len(seqs))
	for i, s := range seqs {
		p, err := seq.KmerProfile(s, k)
		if err != nil {
			return nil, fmt.Errorf("taxon %q: %w", names[i], err)
		}
		profiles[i] = p
	}
	n := len(seqs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := seq.CosineDistance(profiles[i], profiles[j])
			d[i][j], d[j][i] = dist, dist
		}
	}
	return d, nil
}

func validateMatrix(names []string, d [][]float64) error {
	n := len(names)
	if n < 2 {
		return ErrTooFewTaxa
	}
	if len(d) != n {
		return ErrBadMatrix
	}
	for i := range d {
		if len(d[i]) != n {
			return ErrBadMatrix
		}
		for j := range d[i] {
			if d[i][j] < 0 {
				return fmt.Errorf("%w: d[%d][%d]=%v", ErrNegativeDst, i, j, d[i][j])
			}
			if d[i][j] != d[j][i] {
				return fmt.Errorf("%w: d[%d][%d] != d[%d][%d]", ErrAsymmetric, i, j, j, i)
			}
		}
	}
	return nil
}

// NeighborJoining builds an (unrooted, represented with a trifurcating
// root) tree from the distance matrix using Saitou-Nei neighbour joining.
func NeighborJoining(names []string, dist [][]float64) (*Node, error) {
	if err := validateMatrix(names, dist); err != nil {
		return nil, err
	}
	// Working copies.
	n := len(names)
	nodes := make([]*Node, n)
	for i, name := range names {
		nodes[i] = &Node{Name: name}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		copy(d[i], dist[i])
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}

	for len(active) > 2 {
		m := len(active)
		// Row sums over active set.
		rowSum := make(map[int]float64, m)
		for _, i := range active {
			var s float64
			for _, j := range active {
				s += d[i][j]
			}
			rowSum[i] = s
		}
		// Pick the pair minimising the Q criterion.
		bestI, bestJ := -1, -1
		bestQ := 0.0
		first := true
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				i, j := active[a], active[b]
				q := float64(m-2)*d[i][j] - rowSum[i] - rowSum[j]
				if first || q < bestQ {
					bestQ, bestI, bestJ, first = q, i, j, false
				}
			}
		}
		// Branch lengths to the new node.
		di := 0.5*d[bestI][bestJ] + (rowSum[bestI]-rowSum[bestJ])/(2*float64(m-2))
		dj := d[bestI][bestJ] - di
		if di < 0 {
			di = 0
		}
		if dj < 0 {
			dj = 0
		}
		nodes[bestI].Length = di
		nodes[bestJ].Length = dj
		parent := &Node{Children: []*Node{nodes[bestI], nodes[bestJ]}}

		// Distances from the new node to the remaining taxa.
		newRow := make([]float64, len(d))
		for _, k := range active {
			if k == bestI || k == bestJ {
				continue
			}
			newRow[k] = 0.5 * (d[bestI][k] + d[bestJ][k] - d[bestI][bestJ])
			if newRow[k] < 0 {
				newRow[k] = 0
			}
		}
		// Reuse slot bestI for the new node; retire bestJ.
		nodes[bestI] = parent
		for _, k := range active {
			if k == bestI || k == bestJ {
				continue
			}
			d[bestI][k] = newRow[k]
			d[k][bestI] = newRow[k]
		}
		d[bestI][bestI] = 0
		next := active[:0]
		for _, k := range active {
			if k != bestJ {
				next = append(next, k)
			}
		}
		active = next
	}

	i, j := active[0], active[1]
	nodes[i].Length = d[i][j] / 2
	nodes[j].Length = d[i][j] / 2
	return &Node{Children: []*Node{nodes[i], nodes[j]}}, nil
}

// BuildFromSequences is the convenience path: distance matrix + NJ.
func BuildFromSequences(names []string, seqs []string, k int) (*Node, error) {
	d, err := DistanceMatrix(names, seqs, k)
	if err != nil {
		return nil, err
	}
	return NeighborJoining(names, d)
}
