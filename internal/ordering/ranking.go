// Package ordering implements the paper's histogram domain-ordering
// framework — its primary contribution.
//
// An ordering method is the combination of a *ranking rule* (a bijection
// between the base label set and ranks [1, |B|]) and an *ordering rule* (a
// bijection between the label path set Lk and the integer domain
// [0, |Lk|)). The five complete methods studied in the paper are num-alph,
// num-card, lex-alph, lex-card, and sum-based (always with cardinality
// ranking); all are provided here, together with the impractical "ideal"
// ordering as an accuracy upper bound and a base-set extension (§5 future
// work).
//
// In the layer map (graph → bitset → paths → exec → pathsel) this package
// sits beside internal/histogram under internal/core: it permutes the
// census's canonical frequency vector into the domain layout the
// histogram buckets are built over.
package ordering

import (
	"fmt"
	"sort"
)

// Ranking is a bijection between edge labels [0, |L|) and ranks [1, |L|].
// Rank 1 is the "front" of the ordering (for cardinality ranking, the
// least frequent label — the paper's l1 <card l2 ⇔ f(l1) < f(l2)).
type Ranking struct {
	name    string
	rankOf  []int64 // rankOf[label] = rank ∈ [1, |L|]
	labelOf []int   // labelOf[rank-1] = label
}

// NumLabels returns |L|.
func (r *Ranking) NumLabels() int { return len(r.rankOf) }

// Name returns the rule name ("alph" or "card", or a custom name).
func (r *Ranking) Name() string { return r.name }

// Rank returns the rank of label l, in [1, |L|].
func (r *Ranking) Rank(l int) int64 {
	if l < 0 || l >= len(r.rankOf) {
		panic(fmt.Sprintf("ordering: label %d out of range [0,%d)", l, len(r.rankOf)))
	}
	return r.rankOf[l]
}

// Label returns the label with the given rank ∈ [1, |L|].
func (r *Ranking) Label(rank int64) int {
	if rank < 1 || rank > int64(len(r.labelOf)) {
		panic(fmt.Sprintf("ordering: rank %d out of range [1,%d]", rank, len(r.labelOf)))
	}
	return r.labelOf[rank-1]
}

// newRanking builds a Ranking from labelOf (labels listed front to back).
func newRanking(name string, labelOf []int) *Ranking {
	r := &Ranking{
		name:    name,
		rankOf:  make([]int64, len(labelOf)),
		labelOf: append([]int(nil), labelOf...),
	}
	seen := make([]bool, len(labelOf))
	for i, l := range labelOf {
		if l < 0 || l >= len(labelOf) || seen[l] {
			panic(fmt.Sprintf("ordering: labelOf %v is not a permutation of [0,%d)", labelOf, len(labelOf)))
		}
		seen[l] = true
		r.rankOf[l] = int64(i + 1)
	}
	return r
}

// AlphabeticalRanking ranks labels by the lexicographic order of their
// display names: the alphabetically first name gets rank 1. Numeric names
// like the paper's "1".."6" sort in the expected order for up to 9 labels;
// callers with ≥10 numeric labels should zero-pad names.
func AlphabeticalRanking(labelNames []string) *Ranking {
	labels := make([]int, len(labelNames))
	for i := range labels {
		labels[i] = i
	}
	sort.SliceStable(labels, func(i, j int) bool {
		return labelNames[labels[i]] < labelNames[labels[j]]
	})
	return newRanking("alph", labels)
}

// CardinalityRanking ranks labels by their selectivity f(l), least
// frequent first (rank 1). Ties break by label id so the ranking is a
// deterministic bijection.
func CardinalityRanking(freq []int64) *Ranking {
	labels := make([]int, len(freq))
	for i := range labels {
		labels[i] = i
	}
	sort.SliceStable(labels, func(i, j int) bool {
		if freq[labels[i]] != freq[labels[j]] {
			return freq[labels[i]] < freq[labels[j]]
		}
		return labels[i] < labels[j]
	})
	return newRanking("card", labels)
}

// RankingFromOrder reconstructs a Ranking from its front-to-back label
// order (the inverse of Order). Used by the persistence codec. It returns
// an error — rather than panicking — because the input typically comes
// from a file.
func RankingFromOrder(name string, labelOf []int) (r *Ranking, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("ordering: invalid ranking order: %v", rec)
		}
	}()
	return newRanking(name, labelOf), nil
}

// Order returns the labels from front (rank 1) to back (rank |L|) — the
// serializable form of the ranking.
func (r *Ranking) Order() []int {
	return append([]int(nil), r.labelOf...)
}
