package ordering

import (
	"fmt"
	"math"

	"repro/internal/paths"
)

// BaseSet implements the paper's base-label-set concept (§3.1) and the
// richer-base-set direction of its concluding remarks: a base set B ⊆ Lk
// such that every label path decomposes into pieces from B, with the
// greedy splitting rule — at each step cut the longest prefix that is in
// B. Because L ⊆ B is required (otherwise some paths cannot be
// decomposed), the greedy rule always terminates.
type BaseSet struct {
	numLabels int
	maxLen    int
	// member maps a piece's canonical index to its rank position.
	rankOf map[int64]int64
}

// NewBaseSetL2 returns the base set L2 (all paths of length ≤ 2), the
// example base set named by the paper, with pieces ranked by the given
// per-piece weight (e.g. exact selectivities from a census): lower weight
// → lower rank, ties by canonical order. Ranks are in [1, |B|].
func NewBaseSetL2(numLabels int, weight func(p paths.Path) int64) *BaseSet {
	b := &BaseSet{numLabels: numLabels, maxLen: 2, rankOf: map[int64]int64{}}
	type piece struct {
		can int64
		w   int64
	}
	var pieces []piece
	for l := 0; l < numLabels; l++ {
		p := paths.Path{l}
		pieces = append(pieces, piece{paths.CanonicalIndex(p, numLabels, 2), weight(p)})
	}
	for l1 := 0; l1 < numLabels; l1++ {
		for l2 := 0; l2 < numLabels; l2++ {
			p := paths.Path{l1, l2}
			pieces = append(pieces, piece{paths.CanonicalIndex(p, numLabels, 2), weight(p)})
		}
	}
	// Insertion sort by (weight, canonical); |B| = |L| + |L|² is small.
	for i := 1; i < len(pieces); i++ {
		for j := i; j > 0; j-- {
			a, c := pieces[j-1], pieces[j]
			if c.w < a.w || (c.w == a.w && c.can < a.can) {
				pieces[j-1], pieces[j] = c, a
			} else {
				break
			}
		}
	}
	for i, pc := range pieces {
		b.rankOf[pc.can] = int64(i + 1)
	}
	return b
}

// Rank returns the rank of a piece in [1, |B|]. It panics when the piece
// is not in the base set.
func (b *BaseSet) Rank(p paths.Path) int64 {
	r, ok := b.rankOf[paths.CanonicalIndex(p, b.numLabels, b.maxLen)]
	if !ok {
		panic(fmt.Sprintf("ordering: piece %v not in base set", p))
	}
	return r
}

// Decompose splits p into base pieces with the greedy longest-prefix rule:
// "4/4/3/3/6" over B = L2 becomes "4/4", "3/3", "6".
func (b *BaseSet) Decompose(p paths.Path) []paths.Path {
	var out []paths.Path
	for len(p) > 0 {
		n := b.maxLen
		if n > len(p) {
			n = len(p)
		}
		// Greedy: longest prefix present in B. Since L ⊆ B, n = 1 always
		// succeeds.
		for ; n > 1; n-- {
			if _, ok := b.rankOf[paths.CanonicalIndex(p[:n], b.numLabels, b.maxLen)]; ok {
				break
			}
		}
		out = append(out, p[:n].Clone())
		p = p[n:]
	}
	return out
}

// SumKey returns the summed rank of p's greedy decomposition — the sort
// key of a base-set sum ordering. Combine with NewMaterialized to obtain a
// complete ordering method over richer base sets:
//
//	ord := ordering.NewMaterialized("sum-L2", L, k, func(can int64) int64 {
//	    return baseSet.SumKey(paths.FromCanonicalIndex(can, L, k))
//	})
//
// (Materialization is needed because decomposition lengths vary by path,
// so stage sizes are no longer closed-form.)
func (b *BaseSet) SumKey(p paths.Path) int64 {
	var sum int64
	for _, piece := range b.Decompose(p) {
		sum += b.Rank(piece)
	}
	// Keep shorter decompositions (longer pieces) grouped first within a
	// length class by weighting the piece count lightly; the dominant
	// term remains the summed rank, mirroring the paper's stage order
	// (length, then sum).
	return int64(len(p))<<40 + sum
}

// NewSumL2 builds the "sum-based over base set L2" ordering suggested by
// the paper's concluding remarks, using exact piece selectivities from the
// census as ranking weights.
func NewSumL2(c *paths.Census) *Materialized {
	if c.K() < 2 {
		panic("ordering: sum-L2 needs a census with k ≥ 2")
	}
	base := NewBaseSetL2(c.NumLabels(), c.Selectivity)
	return NewMaterialized("sum-L2", c.NumLabels(), c.K(), func(can int64) int64 {
		return base.SumKey(paths.FromCanonicalIndex(can, c.NumLabels(), c.K()))
	})
}

// NewProduct builds a product-based ordering — an additional strategy in
// the framework beyond the paper (its concluding remarks invite exactly
// such extensions). Under an independence assumption the selectivity of
// l1/…/lm scales like Π f(li) (normalized per join step), so sorting a
// length class by Σ log f(li) — the log of that product — is a finer
// cardinality proxy than the sum of ranks: it uses the actual frequency
// magnitudes, not just their order. Like sum-L2 it requires
// materialization, costing O(|Lk|) memory.
func NewProduct(freq []int64, k int) *Materialized {
	numLabels := len(freq)
	// Fixed-point log2(f+1) with 10 fractional bits keeps the key integral
	// and monotone in the product.
	logf := make([]int64, numLabels)
	for l, f := range freq {
		logf[l] = int64(1024 * math.Log2(float64(f)+1))
	}
	return NewMaterialized("product", numLabels, k, func(can int64) int64 {
		p := paths.FromCanonicalIndex(can, numLabels, k)
		var sum int64
		for _, l := range p {
			sum += logf[l]
		}
		// Length-first (stage-one analogue), then by log-product.
		return int64(len(p))<<40 + sum
	})
}
