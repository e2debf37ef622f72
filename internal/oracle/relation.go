package oracle

import (
	"fmt"

	"repro/internal/bitset"
)

// Relation is a binary relation over the vertex universe [0, n): a set of
// ordered pairs (source, target). Rows are allocated lazily — a source with
// no targets costs one nil pointer — which matters because label-path
// relations are typically sparse in their source dimension.
type Relation struct {
	rows []*Set
	n    int
}

// NewRelation returns an empty relation over an n-vertex universe.
func NewRelation(n int) *Relation {
	if n < 0 {
		panic(fmt.Sprintf("oracle: negative universe %d", n))
	}
	return &Relation{rows: make([]*Set, n), n: n}
}

// Universe returns the vertex-universe size n.
func (r *Relation) Universe() int { return r.n }

// Add inserts the pair (s, t).
func (r *Relation) Add(s, t int) {
	if r.rows[s] == nil {
		r.rows[s] = NewSet(r.n)
	}
	r.rows[s].Add(t)
}

// Contains reports whether the pair (s, t) is present.
func (r *Relation) Contains(s, t int) bool {
	return r.rows[s] != nil && r.rows[s].Contains(t)
}

// Row returns the target set of source s, or nil when s has no targets.
// The returned set is shared, not a copy.
func (r *Relation) Row(s int) *Set { return r.rows[s] }

// Pairs returns the total number of pairs (distinct by construction).
func (r *Relation) Pairs() int64 {
	var c int64
	for _, row := range r.rows {
		if row != nil {
			c += int64(row.Count())
		}
	}
	return c
}

// Sources returns the number of sources with at least one target.
func (r *Relation) Sources() int {
	c := 0
	for _, row := range r.rows {
		if row != nil && !row.Empty() {
			c++
		}
	}
	return c
}

// ForEachRow calls fn once per non-empty source row in ascending source
// order. The set passed to fn is shared, not a copy.
func (r *Relation) ForEachRow(fn func(s int, targets *Set) bool) {
	for s, row := range r.rows {
		if row == nil || row.Empty() {
			continue
		}
		if !fn(s, row) {
			return
		}
	}
}

// Compose returns the relational composition r ∘ succ, where succ[t] is the
// successor set of vertex t (e.g. the adjacency rows of one edge label):
//
//	(s, u) ∈ result  ⇔  ∃t: (s, t) ∈ r ∧ u ∈ succ[t]
//
// succ must have length equal to the universe; nil entries mean "no
// successors". Distinctness of result pairs is inherent in the bit-set
// representation.
func (r *Relation) Compose(succ []*Set) *Relation {
	if len(succ) != r.n {
		panic(fmt.Sprintf("oracle: successor table size %d != universe %d", len(succ), r.n))
	}
	out := NewRelation(r.n)
	for s, row := range r.rows {
		if row == nil || row.Empty() {
			continue
		}
		var acc *Set
		row.ForEach(func(t int) bool {
			if succ[t] != nil {
				if acc == nil {
					acc = NewSet(r.n)
				}
				acc.UnionWith(succ[t])
			}
			return true
		})
		if acc != nil && !acc.Empty() {
			out.rows[s] = acc
		}
	}
	return out
}

// Reverse returns the inverse relation: (t, s) for every (s, t).
func (r *Relation) Reverse() *Relation {
	out := NewRelation(r.n)
	for s, row := range r.rows {
		if row == nil {
			continue
		}
		row.ForEach(func(t int) bool {
			out.Add(t, s)
			return true
		})
	}
	return out
}

// Equal reports whether two relations contain the same pairs.
func (r *Relation) Equal(o *Relation) bool {
	if r.n != o.n {
		return false
	}
	for s := 0; s < r.n; s++ {
		a, b := r.rows[s], o.rows[s]
		switch {
		case a == nil || a.Empty():
			if b != nil && !b.Empty() {
				return false
			}
		case b == nil || b.Empty():
			return false
		default:
			if !a.Equal(b) {
				return false
			}
		}
	}
	return true
}

// Universe returns the vertex-universe size of a hybrid relation: the
// positions of its rows read with the identity term, one per vertex.
func Universe(h *bitset.HybridRelation) int { return h.Extend(true, false).Len() }

// EqualRelation reports whether h contains exactly the pairs of the dense
// reference relation r.
func EqualRelation(h *bitset.HybridRelation, r *Relation) bool {
	if Universe(h) != r.Universe() || h.Pairs() != r.Pairs() {
		return false
	}
	equal := true
	h.ForEachPair(func(s, t int) bool {
		if !r.Contains(s, t) {
			equal = false
		}
		return equal
	})
	return equal
}
