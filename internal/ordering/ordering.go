package ordering

import (
	"fmt"
	"strings"

	"repro/internal/combinat"
	"repro/internal/graph"
	"repro/internal/paths"
)

// Ordering is a bijection between the label path set Lk (all paths of
// length 1…k over |L| labels) and the histogram domain [0, Size()).
//
// Index is the ranking direction (used at histogram *construction* time to
// place each path's frequency on the domain) and Path is the unranking
// direction (used at *estimation* time only when a consumer needs to map a
// domain position back to a path). Both must be total on their domains and
// mutually inverse.
type Ordering interface {
	// Name identifies the method, e.g. "num-alph" or "sum-based".
	Name() string
	// NumLabels returns |L|.
	NumLabels() int
	// K returns the maximum path length.
	K() int
	// Size returns |Lk| = Σ_{i=1..k} |L|^i.
	Size() int64
	// Index returns the domain position of p. It panics when p is empty,
	// longer than K, or contains an out-of-range label.
	Index(p paths.Path) int64
	// Path returns the label path at domain position idx. It panics when
	// idx ∉ [0, Size()).
	Path(idx int64) paths.Path
}

// common carries the fields shared by all ordering rules.
type common struct {
	rank *Ranking
	k    int
	size int64
}

func newCommon(rank *Ranking, k int) common {
	if k < 1 {
		panic(fmt.Sprintf("ordering: k must be ≥ 1, got %d", k))
	}
	return common{
		rank: rank,
		k:    k,
		size: combinat.GeometricSum(int64(rank.NumLabels()), int64(k)),
	}
}

func (c common) NumLabels() int { return c.rank.NumLabels() }
func (c common) K() int         { return c.k }
func (c common) Size() int64    { return c.size }

// Ranking returns the ranking rule underlying this ordering — needed by
// the persistence codec to reconstruct the bijection.
func (c common) Ranking() *Ranking { return c.rank }

func (c common) checkPath(p paths.Path) {
	if len(p) == 0 || len(p) > c.k {
		panic(fmt.Sprintf("ordering: path length %d out of [1,%d]", len(p), c.k))
	}
	for _, l := range p {
		if l < 0 || l >= c.rank.NumLabels() {
			panic(fmt.Sprintf("ordering: label %d out of range [0,%d)", l, c.rank.NumLabels()))
		}
	}
}

func (c common) checkIndex(idx int64) {
	if idx < 0 || idx >= c.size {
		panic(fmt.Sprintf("ordering: index %d out of range [0,%d)", idx, c.size))
	}
}

// Method names of the five complete ordering methods evaluated in the
// paper, in its presentation order.
const (
	MethodNumAlph  = "num-alph"
	MethodNumCard  = "num-card"
	MethodLexAlph  = "lex-alph"
	MethodLexCard  = "lex-card"
	MethodSumBased = "sum-based"
)

// PaperMethods lists the five method names in the paper's order.
func PaperMethods() []string {
	return []string{MethodNumAlph, MethodNumCard, MethodLexAlph, MethodLexCard, MethodSumBased}
}

// ForGraph is ForLabels over g's label names and frequencies.
func ForGraph(method string, g *graph.CSR, k int) (Ordering, error) {
	return ForLabels(method, g.LabelNames(), g.LabelFrequencies(), k)
}

// ForLabels constructs the named ordering method, one of PaperMethods, for
// a vocabulary: its ranking is derived from the label names (alph) or the
// label frequencies, a tie broken by name (card). Sum-based always uses
// cardinality ranking, as in the paper.
func ForLabels(method string, names []string, freq []int64, k int) (Ordering, error) {
	switch method {
	case MethodNumAlph, MethodLexAlph:
		return ForRanking(method, AlphabeticalRanking(names), k)
	case MethodNumCard, MethodLexCard, MethodSumBased:
		return ForRanking(method, CardinalityRanking(freq, names), k)
	}
	return nil, unknownMethod(method)
}

// ForRanking constructs the rule family a method name starts with —
// "num-", "lex-" or "sum-", as every serializable ordering's Name does —
// over a given ranking: how a stored synopsis, which keeps its ranking,
// rebuilds its ordering.
func ForRanking(method string, rank *Ranking, k int) (Ordering, error) {
	switch {
	case strings.HasPrefix(method, "num-"):
		return NewNumerical(rank, k), nil
	case strings.HasPrefix(method, "lex-"):
		return NewLexicographic(rank, k), nil
	case strings.HasPrefix(method, "sum-"): // MethodSumBased among them
		return NewSumBased(rank, k), nil
	}
	return nil, unknownMethod(method)
}

func unknownMethod(method string) error {
	return fmt.Errorf("ordering: unknown ordering method %q", method)
}
