// Package paths is the path-evaluation layer of the reproduction (graph →
// bitset → paths → exec → pathsel): label paths, single-path evaluation,
// and the exact path-selectivity census.
//
// A k-label path ℓ = l1/l2/…/lk is a sequence of edge labels. Its
// evaluation ℓ(G) is the set of distinct vertex pairs (vs, vt) connected by
// a path spelling ℓ; the selectivity f(ℓ) = |ℓ(G)|. The census computes
// f(ℓ) for every ℓ ∈ Lk (all label paths of length 1…k) by a DFS over the
// label trie, extending each prefix's pair relation by one label via
// relational composition.
//
// NewCensusHybrid is the census engine: pooled hybrid sparse/dense
// relations with work-stealing trie parallelism over the shared
// scheduling layer (internal/sched): subtrees split at any trie depth,
// so workers are not capped at |L| and skewed first-label distributions
// do not serialize on one goroutine. The trie's leaves are counted, never
// built, and a prefix's |L| leaves in one pass (bitset.Rows.CountLabels)
// over an operand that fuses every label's CSR vertex-major, built once
// per census and dropped with it. PrefixSelectivity seeds the same engine
// with one prefix's relation and counts that subtree alone. Evaluate,
// Selectivity and UnionSelectivity evaluate single paths on the same
// substrate. The simple allocating references on dense rows — a
// sequential trie-DFS census and a forward evaluator — live in
// internal/oracle, a package only tests import; property and fuzz tests
// in equivalence_test.go pin every entry point here bit-identical to
// them.
//
// Knobs (CensusOptions):
//
//   - Workers: census goroutine count; ≤ 0 means GOMAXPROCS. Workers are
//     not capped at |L| — subtrees split at any trie depth.
//   - DensityThreshold: the hybrid rows' sparse→dense promotion point as
//     a fraction of |V| in (0, 1]; ≤ 0 selects
//     bitset.DefaultDensityThreshold (1/32), ≥ 1 keeps every row sparse.
//
// Both change performance only, never results. A census subtree is offered
// to the work-stealing deques once its prefix selectivity reaches 128
// vertex pairs; smaller subtrees expand inline on pooled relations.
package paths

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/combinat"
	"repro/internal/graph"
)

// Path is a label path: a sequence of dense label ids.
type Path []int

// String renders the path in the paper's l1/l2/…/lk notation using the
// graph's label names.
func (p Path) String(g interface{ LabelName(int) string }) string {
	parts := make([]string, len(p))
	for i, l := range p {
		parts[i] = g.LabelName(l)
	}
	return strings.Join(parts, "/")
}

// Key renders the path with 1-based numeric labels, independent of a
// graph, e.g. "1/2/3". Useful for map keys and tests.
func (p Path) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, l := range p {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, int64(l)+1, 10)
	}
	return string(b)
}

// Clone returns a copy of p.
func (p Path) Clone() Path {
	c := make(Path, len(p))
	copy(c, p)
	return c
}

// Equal reports whether p and q are the same label sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// CanonicalIndex returns the position of p in the canonical domain: all
// paths of length 1…k over numLabels labels, ordered by length first, then
// positionally by label id (this coincides with the paper's num-alph
// ordering when label names sort like their ids). It panics when p is
// empty, longer than k, or contains an out-of-range label.
func CanonicalIndex(p Path, numLabels, k int) int64 {
	if len(p) == 0 || len(p) > k {
		panic(fmt.Sprintf("paths: path length %d out of [1,%d]", len(p), k))
	}
	var offset int64
	for i := 1; i < len(p); i++ {
		offset += combinat.Pow(int64(numLabels), int64(i))
	}
	var val int64
	for _, l := range p {
		if l < 0 || l >= numLabels {
			panic(fmt.Sprintf("paths: label %d out of range [0,%d)", l, numLabels))
		}
		val = val*int64(numLabels) + int64(l)
	}
	return offset + val
}

// FromCanonicalIndex inverts CanonicalIndex.
func FromCanonicalIndex(idx int64, numLabels, k int) Path {
	if idx < 0 || idx >= combinat.GeometricSum(int64(numLabels), int64(k)) {
		panic(fmt.Sprintf("paths: canonical index %d out of range", idx))
	}
	length := 1
	for {
		block := combinat.Pow(int64(numLabels), int64(length))
		if idx < block {
			break
		}
		idx -= block
		length++
	}
	p := make(Path, length)
	for i := length - 1; i >= 0; i-- {
		p[i] = int(idx % int64(numLabels))
		idx /= int64(numLabels)
	}
	return p
}

// Evaluate returns ℓ(G) as a hybrid relation of distinct vertex pairs,
// computed left-to-right on the hybrid sparse/dense substrate: two pooled
// relations double-buffer through the specialized compose kernels, and
// each row adapts its representation per step. It panics on an empty
// path. Equivalent to EvaluateWithDensity with the default threshold.
func Evaluate(g *graph.CSR, p Path) *bitset.HybridRelation {
	return EvaluateWithDensity(g, p, 0)
}

// EvaluateWithDensity is Evaluate with an explicit sparse→dense promotion
// threshold (fraction of |V|; ≤ 0 selects bitset.DefaultDensityThreshold,
// ≥ 1 keeps every row sparse). Purely a performance knob — results are
// identical at any setting.
func EvaluateWithDensity(g *graph.CSR, p Path, density float64) *bitset.HybridRelation {
	if len(p) == 0 {
		panic("paths: evaluate empty path")
	}
	cur := bitset.HybridFromCSR(g.LabelOperand(p[0]), density)
	if len(p) == 1 {
		return cur
	}
	buf := bitset.NewHybrid(g.NumVertices(), density)
	scr := bitset.NewComposeScratch(g.NumVertices())
	for _, l := range p[1:] {
		cur.ComposeInto(buf, g.LabelOperand(l), scr)
		cur, buf = buf, cur
	}
	return cur
}

// Selectivity returns f(ℓ) = |ℓ(G)|.
func Selectivity(g *graph.CSR, p Path) int64 {
	return Evaluate(g, p).Pairs()
}

// UnionSelectivity returns the number of distinct vertex pairs connected
// by at least one of the given paths — the exact answer of a pattern
// (disjunction) query under set semantics. Each path evaluates on the
// hybrid substrate and accumulates into the first result by row-wise
// union (bitset.HybridRelation.UnionWith). It panics when ps is empty.
func UnionSelectivity(g *graph.CSR, ps []Path) int64 {
	if len(ps) == 0 {
		panic("paths: union of no paths")
	}
	acc := Evaluate(g, ps[0])
	for _, p := range ps[1:] {
		acc.UnionWith(Evaluate(g, p))
	}
	return acc.Pairs()
}
