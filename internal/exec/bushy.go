package exec

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/paths"
)

// PlanTree is one node of a plan: a plan for the element interval
// [Lo, Hi) of its query, positions absolute. It is one of four nodes:
//
//   - a zig-zag leaf (Left nil, Start ≥ 0) builds a run of plain labels
//     linearly with the zig-zag plan starting at label position Start;
//   - an element leaf (Left nil, Start −1) builds one complex element's
//     relation (core.elem);
//   - a join node (Left and Right) builds [Lo, Left.Hi) and [Left.Hi, Hi)
//     independently and joins the two finished relations with the
//     relation×relation kernel;
//   - a step node (Left, Right nil) builds [Lo, Hi−1) and composes it
//     through element Hi−1's labels, read from the graph: the element must
//     be one step from the graph (MaxRep 1).
//
// Leaves generalize the whole zig-zag space: a leaf spanning the full query
// is exactly a zig-zag plan — Start Lo is the classic forward
// (left-to-right) plan, Start Hi−1 the backward plan, and interior starts
// let the join begin at the most selective label, which neither endpoint
// plan can reach. Join nodes are what zig-zag cannot express — both join
// inputs are materialized interior segments, so interior-segment
// selectivity estimates decide the plan's cost. An RPQ's plan is the
// left-deep chain of join and step nodes its fold implies (Planner.Plan).
// Where either side of a join or step node may match the empty path, the
// step carries the matching identity term.
type PlanTree struct {
	// Lo, Hi delimit the element interval [Lo, Hi) this subtree builds.
	Lo, Hi int
	// Start is the absolute label position a zig-zag leaf grows from, in
	// [Lo, Hi). Element leaves and inner nodes carry −1.
	Start int
	// Left and Right are the children: both nil for a leaf, Left alone for
	// a step node, both for a join node; Left builds [Lo, Left.Hi) and
	// Right builds [Left.Hi, Hi).
	Left, Right *PlanTree
}

// IsLeaf reports whether the node builds its interval without children.
func (t *PlanTree) IsLeaf() bool { return t.Left == nil }

// right returns the node's right side: its right child, or for a step node
// the leaf over the element it composes through.
func (t *PlanTree) right() *PlanTree {
	if t.Right != nil {
		return t.Right
	}
	return &PlanTree{Lo: t.Hi - 1, Hi: t.Hi, Start: t.Hi - 1}
}

// Describe renders the tree of a length-k concrete path. A leaf spanning
// the whole query renders as its zig-zag plan name ("forward", "backward",
// "zigzag@i"); interior leaves render as "[lo,hi)@start" and join nodes
// as "(left ⋈ right)". DagPlan.Describe renders any plan.
func (t *PlanTree) Describe(k int) string { return t.describe(0, k) }

// describe renders the tree of the run [at, at+k), positions relative to
// the run.
func (t *PlanTree) describe(at, k int) string {
	if t.IsLeaf() {
		lo, hi, start := t.Lo-at, t.Hi-at, t.Start-at
		switch {
		case lo != 0 || hi != k:
			return fmt.Sprintf("[%d,%d)@%d", lo, hi, start)
		case start == 0:
			return "forward"
		case start == k-1:
			return "backward"
		default:
			return fmt.Sprintf("zigzag@%d", start)
		}
	}
	return "(" + t.Left.describe(at, k) + " ⋈ " + t.right().describe(at, k) + ")"
}

// validate panics unless the tree is a well-formed plan for the interval
// [lo, hi) of elems: spans nest exactly, a zig-zag leaf grows from inside
// a run of plain labels, an element leaf covers one complex element, a step
// node composes through one element one step from the graph, and a join
// node's right child starts where its left child ends.
func (t *PlanTree) validate(elems []RPQElem, lo, hi int) {
	if t == nil {
		panic("exec: nil plan tree node")
	}
	if t.Lo != lo || t.Hi != hi {
		panic(fmt.Sprintf("exec: plan tree node spans [%d,%d), expected [%d,%d)", t.Lo, t.Hi, lo, hi))
	}
	switch {
	case t.Left == nil && t.Right != nil:
		panic("exec: plan tree node with a right child and no left")
	case t.Left == nil && t.Start >= 0:
		if t.Start < lo || t.Start >= hi {
			panic(fmt.Sprintf("exec: leaf start %d out of segment [%d,%d)", t.Start, lo, hi))
		}
		if !plain(elems[lo:hi]) {
			panic(fmt.Sprintf("exec: zig-zag leaf [%d,%d) over a complex element", lo, hi))
		}
	case t.Left == nil:
		if hi-lo != 1 {
			panic(fmt.Sprintf("exec: element leaf over %d elements [%d,%d)", hi-lo, lo, hi))
		}
		if elems[lo].simple() {
			panic(fmt.Sprintf("exec: element leaf over plain element %d", lo))
		}
	default:
		m := t.Left.Hi
		if m <= lo || m >= hi {
			panic(fmt.Sprintf("exec: plan tree split %d out of segment (%d,%d)", m, lo, hi))
		}
		t.Left.validate(elems, lo, m)
		if t.Right == nil {
			if m != hi-1 {
				panic(fmt.Sprintf("exec: step node [%d,%d) composes through %d elements", lo, hi, hi-m))
			}
			if elems[m].MaxRep > 1 {
				panic(fmt.Sprintf("exec: step node composes through element %d, more than one step from the graph", m))
			}
			return
		}
		if t.Right.Lo != m {
			panic(fmt.Sprintf("exec: right child starts at %d, not at its left sibling's end %d", t.Right.Lo, m))
		}
		t.Right.validate(elems, m, hi)
	}
}

// treeCell is one DP-table entry: the best estimated cost of building
// segment [i, j), and how — split < 0 means a zig-zag leaf with the given
// absolute start; otherwise a join at the split position.
type treeCell struct {
	cost  float64
	split int
	start int
}

// chooseTree returns the cheapest plan tree for the table's path, the run
// starting at element at of its query, with its estimated cost and the
// per-start cost of every zig-zag plan over the whole run: it searches
// every way to split the path into independently built segments joined
// pairwise, with every zig-zag leaf of every segment among the
// candidates. Arithmetic and cached probes (nil: nothing is cached), no
// estimator calls.
//
// It is one dynamic program over the path's segments: the best plan for
// p[i:j) is its cheapest zig-zag leaf or its cheapest split. Cost model: a
// leaf's cost is its zig-zag plan's (the sum of estimated
// intermediate-segment selectivities); a join node adds both children's
// costs plus both children's full-segment estimates, because a join
// materializes and consumes both inputs (whereas a zig-zag step's
// right-hand side is a free CSR operand — which is why linear growth wins
// whenever one side is a single label). A segment cached reports as
// materialized costs nothing to build. Ties break deterministically: the
// leaf beats any equal-cost join, and among equal splits or starts the
// lowest index wins. The table of cells lives on the stack while the run
// has at most 16 labels, the longest a histogram covers.
//
// Segments are visited right end ascending, left end descending, which
// makes every leaf cost one addition: the plan starting at s on p[i:j)
// sums its rightward intermediates p[s:s+1) … first — a running sum per
// s, advanced once per right end — and then its leftward ones p[s−1:j),
// p[s−2:j), …, so widening the segment leftward by one label appends one
// term to the sum it had. After the last segment, the whole path, those
// sums are the zig-zag costs: the plan starting at 0 grows only rightward
// and stops short of the result, and the one starting at s > 0 feeds every
// rightward segment up to p[s:k) into its first leftward step. With an
// exact estimator each is the plan's executed Stats.Work.
func (t segTable) chooseTree(cached func(paths.Path) bool, at int) (*PlanTree, float64, []float64) {
	k := len(t.p)
	var room [16 * 17 / 2]treeCell
	dp := room[:]
	if len(t.est) > len(dp) {
		dp = make([]treeCell, len(t.est))
	}
	// right[s] is Σ Est(s, x) over the right ends x seen so far; zig[s] is
	// the cost on the current segment of the plan starting at s, for s
	// right of the segment's left end.
	right, zig := t.sums[:k], t.sums[k:]
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
	zig[0] = right[0] // the plan starting at 0, which only grows rightward
	return buildTree(dp, k, 0, k, at), dp[tri(k, 0, k)].cost, zig
}

// buildTree materializes the DP table's winning plan for segment [i, j)
// of a length-k run whose first label is element at of its query.
func buildTree(dp []treeCell, k, i, j, at int) *PlanTree {
	c := dp[tri(k, i, j)]
	if c.split < 0 {
		return &PlanTree{Lo: at + i, Hi: at + j, Start: at + c.start}
	}
	return &PlanTree{
		Lo: at + i, Hi: at + j, Start: -1,
		Left:  buildTree(dp, k, i, c.split, at),
		Right: buildTree(dp, k, c.split, j, at),
	}
}

// node builds the relation of the element interval elems[t.Lo:t.Hi) with
// the plan tree t — the one walk every plan runs. A leaf is its builder's:
// a zig-zag leaf's (leaf), an element leaf's (elem). A join or step node
// whose interval is already cached adopts it without building anything
// below it (whole) — this is how a warm cache gives bushy plans their
// inputs, and whole subtrees, for free, and since a fold chain's nodes
// probe on the way down, an RPQ resumes after its longest cached prefix.
// Otherwise the node builds its left child, then its right child — so a
// right child over the same labels as its left adopts what the left just
// published — or, a step node, takes the labels of element Hi−1 from the
// graph, and runs its one step, its identity terms read off the elements:
// eps when every element left of the split is optional, skip when every
// one right of it is. It records
// the step's inputs as intermediates after the children's own and
// releases them once the step has run. The step publishes the node's
// relation under the interval's key; a root node that may count (see
// counts) has no destination.
func (x *core) node(elems []RPQElem, t *PlanTree, root bool) (*bitset.HybridRelation, error) {
	if t.IsLeaf() {
		if t.Start < 0 {
			return x.elem(elems[t.Lo:t.Hi], root)
		}
		return x.leaf(elems[t.Lo:t.Hi], t.Start-t.Lo, root)
	}
	var room [keyRoom]byte
	key := x.key(room[:0], elems[t.Lo:t.Hi])
	if rel, err := x.whole(key); rel != nil || err != nil {
		return rel, err
	}
	l, err := x.node(elems, t.Left, false)
	if err != nil {
		return nil, err
	}
	m := t.Left.Hi
	var r *bitset.HybridRelation
	var labels []int
	if t.Right != nil {
		if r, err = x.node(elems, t.Right, false); err != nil {
			return nil, err
		}
		x.ints = append(x.ints, l.Pairs(), r.Pairs())
	} else {
		labels = elems[m].Labels
		x.ints = append(x.ints, l.Pairs())
	}
	left := l.Extend(optional(elems[t.Lo:m]), optional(elems[m:t.Hi]))
	dst, err := x.step(key, false, root && x.counts(key), left, r, labels)
	x.drop(l)
	x.drop(r)
	return dst, err
}
