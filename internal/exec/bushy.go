package exec

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/paths"
)

// MaxTreeLength bounds the bushy planner's dynamic program. The DP
// enumerates all O(k²) segments of a length-k query and all O(k) splits
// and zig-zag starts per segment — O(k²) estimator lookups (the segment
// table) plus O(k³) arithmetic over it — which is trivial at the
// census-bounded path lengths (k ≤ 6 in the paper) but deserves a hard
// edge: beyond this bound the planner falls back to the linear zig-zag
// space, which is O(k²).
const MaxTreeLength = 16

// PlanTree is a join plan for a path query segment p[Lo:Hi): either a
// leaf — the segment is built linearly with the zig-zag plan starting at
// label position Start — or a bushy join node, whose two children build
// p[Lo:Mid) and p[Mid:Hi) independently and whose own step joins the two
// finished relations with the relation×relation kernel
// (bitset.JoinInto). Leaves generalize the whole zig-zag space: a leaf
// spanning the full query is exactly a zig-zag plan — Start Lo is the
// classic forward (left-to-right) plan, Start Hi−1 the backward plan, and
// interior starts let the join begin at the most selective label, which
// neither endpoint plan can reach. Join nodes are what zig-zag
// cannot express — both join inputs are materialized interior segments,
// so interior-segment selectivity estimates decide the plan's cost.
type PlanTree struct {
	// Lo, Hi delimit the query segment [Lo, Hi) this subtree builds.
	Lo, Hi int
	// Start is the absolute label position a leaf's zig-zag grows from,
	// in [Lo, Hi). Join nodes carry −1.
	Start int
	// Left and Right are the two children of a join node (both nil for a
	// leaf, both non-nil otherwise); Left builds [Lo, Left.Hi) and Right
	// builds [Left.Hi, Hi).
	Left, Right *PlanTree
}

// IsLeaf reports whether the node builds its segment linearly.
func (t *PlanTree) IsLeaf() bool { return t.Left == nil }

// Describe renders the tree for a length-k query. A leaf spanning the
// whole query renders as its zig-zag plan name ("forward", "backward",
// "zigzag@i"); interior leaves render as "[lo,hi)@start" and join nodes
// as "(left ⋈ right)".
func (t *PlanTree) Describe(k int) string {
	if t.IsLeaf() {
		switch {
		case t.Lo != 0 || t.Hi != k:
			return fmt.Sprintf("[%d,%d)@%d", t.Lo, t.Hi, t.Start)
		case t.Start == 0:
			return "forward"
		case t.Start == k-1:
			return "backward"
		default:
			return fmt.Sprintf("zigzag@%d", t.Start)
		}
	}
	return "(" + t.Left.Describe(k) + " ⋈ " + t.Right.Describe(k) + ")"
}

// validate panics unless the tree is a well-formed plan for segment
// [lo, hi): spans nest exactly, leaf starts are in range, and join nodes
// have both children.
func (t *PlanTree) validate(lo, hi int) {
	if t == nil {
		panic("exec: nil plan tree node")
	}
	if t.Lo != lo || t.Hi != hi {
		panic(fmt.Sprintf("exec: plan tree node spans [%d,%d), expected [%d,%d)", t.Lo, t.Hi, lo, hi))
	}
	if t.IsLeaf() {
		if t.Right != nil {
			panic("exec: plan tree node with exactly one child")
		}
		if t.Start < lo || t.Start >= hi {
			panic(fmt.Sprintf("exec: leaf start %d out of segment [%d,%d)", t.Start, lo, hi))
		}
		return
	}
	if t.Right == nil {
		panic("exec: plan tree node with exactly one child")
	}
	m := t.Left.Hi
	if m <= lo || m >= hi {
		panic(fmt.Sprintf("exec: plan tree split %d out of segment (%d,%d)", m, lo, hi))
	}
	t.Left.validate(lo, m)
	t.Right.validate(m, hi)
}

// treeCell is one DP-table entry: the best estimated cost of building
// segment [i, j), and how — split < 0 means a linear leaf with the given
// absolute zig-zag start; otherwise a bushy join at the split position.
type treeCell struct {
	cost  float64
	split int
	start int
}

// treeDP fills the plan table for t's path: the cell at tri(k, i, j) is
// the best plan for p[i:j). Cost model: a leaf's cost is its zig-zag
// plan's (the sum of estimated intermediate-segment selectivities); a
// join node adds both children's costs plus both children's full-segment
// estimates, because a bushy join materializes and consumes both inputs
// (whereas a zig-zag step's right-hand side is a free CSR operand — which
// is why linear growth wins whenever one side is a single label). A
// segment cached reports as materialized costs nothing to build. Ties
// break deterministically: the leaf beats any equal-cost join (falling
// back to zig-zag when linear wins), and among equal splits or starts the
// lowest index wins.
//
// Segments are visited right end ascending, left end descending, which
// makes every leaf cost one addition: the plan starting at s on p[i:j)
// sums its rightward intermediates p[s:s+1) … first — a running sum per
// s, advanced once per right end — and then its leftward ones p[s−1:j),
// p[s−2:j), …, so widening the segment leftward by one label appends one
// term to the sum it had. Each sum therefore adds the same terms in the
// same order as segTable.costs does, and every cost is the same float.
func (t segTable) treeDP(cached func(paths.Path) bool) []treeCell {
	k := len(t.p)
	dp := make([]treeCell, len(t.est))
	buf := make([]float64, 2*k)
	// right[s] is Σ Est(s, x) over the right ends x seen so far; zig[s] is
	// the cost on the current segment of the plan starting at s, for s
	// right of the segment's left end.
	right, zig := buf[:k], buf[k:]
	for j := 1; j <= k; j++ {
		for i := j - 1; i >= 0; i-- {
			// The plan starting at the left end only grows rightward, and
			// its last extension p[i:j) is the result, not an intermediate.
			best := treeCell{cost: right[i], split: -1, start: i}
			right[i] += t.est[tri(k, i, j)]
			if i+1 < j {
				zig[i+1] = right[i+1]
				grown := t.est[tri(k, i+1, j)]
				for s := i + 2; s < j; s++ {
					zig[s] += grown
				}
				for s := i + 1; s < j; s++ {
					if zig[s] < best.cost {
						best.cost, best.start = zig[s], s
					}
				}
				if cached != nil && cached(t.p[i:j]) {
					// The segment's finished relation is already cached:
					// the executor adopts it whole (the whole-segment fast
					// path), so building it costs nothing. The segment still
					// contributes its estimated size wherever a parent join
					// consumes it — adoption is free, scanning is not.
					best.cost = 0
				}
				for m := i + 1; m < j; m++ {
					c := dp[tri(k, i, m)].cost + dp[tri(k, m, j)].cost +
						t.est[tri(k, i, m)] + t.est[tri(k, m, j)]
					if c < best.cost {
						best = treeCell{cost: c, split: m, start: -1}
					}
				}
			}
			dp[tri(k, i, j)] = best
		}
	}
	return dp
}

// buildTree materializes the DP table's winning plan for segment [i, j)
// of a length-k path.
func buildTree(dp []treeCell, k, i, j int) *PlanTree {
	c := dp[tri(k, i, j)]
	if c.split < 0 {
		return &PlanTree{Lo: i, Hi: j, Start: c.start}
	}
	return &PlanTree{
		Lo: i, Hi: j, Start: -1,
		Left:  buildTree(dp, k, i, c.split),
		Right: buildTree(dp, k, c.split, j),
	}
}

// chooseTree returns the cheapest plan for the table's path, with its
// estimated cost: the cheapest zig-zag plan as a single leaf, or — when
// bushy — the cheapest plan tree, searching every way to split the path
// into independently built segments joined pairwise on top of the linear
// space. When no bushy decomposition is estimated to beat the best zig-zag
// plan the tree is a single leaf, and beyond MaxTreeLength the bushy space
// is not enumerated at all. Arithmetic and cached probes (nil: nothing is
// cached), no estimator calls.
func (t segTable) chooseTree(bushy bool, cached func(paths.Path) bool) (*PlanTree, float64) {
	k := len(t.p)
	if !bushy || k > MaxTreeLength {
		start := cheapest(t.costs)
		return &PlanTree{Lo: 0, Hi: k, Start: start}, t.costs[start]
	}
	dp := t.treeDP(cached)
	return buildTree(dp, k, 0, k), dp[tri(k, 0, k)].cost
}

// tree builds segment p[t.Lo:t.Hi) with the plan tree t. A leaf is a
// zig-zag plan. A join node whose whole segment is already cached adopts
// it without building either child — this is how a warm cache gives
// bushy plans their leaf inputs, and whole subtrees, for free; otherwise
// it builds its left child, then its right child — so a right child over
// the same labels as its left adopts what the left just published — and
// joins them with the sharded relation×relation kernel, recording both
// inputs as intermediates after the children's own (left subtree's, then
// right subtree's).
func (x *core) tree(p paths.Path, t *PlanTree, root bool) (*bitset.HybridRelation, error) {
	seg := p[t.Lo:t.Hi]
	if t.IsLeaf() {
		return x.leaf(seg, t.Start-t.Lo, root)
	}
	// A root join that may count (see counts) has no cache to adopt from
	// and needs no destination: dst stays nil and its step is counted.
	var room [keyRoom]byte
	key := x.pathKey(room[:0], seg)
	var dst *bitset.HybridRelation
	if !(root && x.counts(key)) {
		d, hit, err := x.whole(key)
		if hit || err != nil {
			return d, err
		}
		dst = d
	}
	l, err := x.tree(p, t.Left, false)
	if err != nil {
		return nil, err
	}
	r, err := x.tree(p, t.Right, false)
	if err != nil {
		return nil, err
	}
	x.ints = append(x.ints, l.Pairs(), r.Pairs())
	// The joined segment is published like every other: a later zig-zag
	// over the same labels, a repeat of this subtree, or the whole-segment
	// fast path can all adopt it.
	err = x.step(key, dst, func() error { return x.join(l.Rows(), dst, r) })
	x.drop(l)
	x.drop(r)
	return dst, err
}
