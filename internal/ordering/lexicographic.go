package ordering

import (
	"repro/internal/paths"
)

// Lexicographic is the paper's lexicographical ordering rule (§3.2):
// dictionary order over rank sequences, where a path precedes all of its
// extensions (the paper pads paths with blank symbols to length k; its
// own worked example, Table 2 — `1, 1/1, 1/2, 1/3, 2, …` — places each
// prefix *before* its extensions, i.e. the blank sorts before every label.
// We follow Table 2, not the formula's stated blank-rank direction.)
//
// Equivalently this is a preorder walk of the |L|-ary label trie visiting
// children in rank order. Both directions run in O(k).
type Lexicographic struct {
	common
	name string
	// subtree[h] = number of domain positions in a subtree of height h:
	// the node itself plus all descendants down to depth k, i.e.
	// Σ_{j=0..h} |L|^j.
	subtree []int64
}

// NewLexicographic builds the lexicographical ordering rule over the given
// ranking.
func NewLexicographic(rank *Ranking, k int) *Lexicographic {
	c := newCommon(rank, k)
	base := int64(rank.NumLabels())
	subtree := make([]int64, k+1)
	subtree[0] = 1
	for h := 1; h <= k; h++ {
		subtree[h] = subtree[h-1]*base + 1
	}
	return &Lexicographic{common: c, name: "lex-" + rank.Name(), subtree: subtree}
}

// Name implements Ordering.
func (o *Lexicographic) Name() string { return o.name }

// Index implements Ordering.
func (o *Lexicographic) Index(p paths.Path) int64 {
	o.checkPath(p)
	var idx int64
	for i, l := range p {
		digit := o.rank.Rank(l) - 1
		// Every lower-ranked sibling's entire subtree precedes p, and so
		// does each proper prefix node of p itself.
		idx += digit * o.subtree[o.k-1-i]
		if i > 0 {
			idx++
		}
	}
	return idx
}

// PrefixRange returns the half-open domain interval [lo, hi) occupied by
// p and all of its extensions. In lexicographic (dictionary) order a
// prefix and its extensions form one contiguous block — the property that
// lets a histogram answer prefix wildcard queries ("p/*", aggregate
// selectivity of every path starting with p) as a single range query.
// The other ordering rules scatter extensions across the domain, so this
// operation is unique to Lexicographic.
func (o *Lexicographic) PrefixRange(p paths.Path) (lo, hi int64) {
	o.checkPath(p)
	lo = o.Index(p)
	return lo, lo + o.subtree[o.k-len(p)]
}

// Path implements Ordering.
func (o *Lexicographic) Path(idx int64) paths.Path {
	o.checkIndex(idx)
	p := make(paths.Path, 0, o.k)
	for depth := 1; ; depth++ {
		per := o.subtree[o.k-depth]
		digit := idx / per
		idx -= digit * per
		p = append(p, o.rank.Label(digit+1))
		if idx == 0 {
			return p
		}
		idx-- // skip the prefix node itself
	}
}
