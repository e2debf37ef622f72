package exec

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/bitset"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// This file is the execution layer's query and plan form: a compiled
// regular-path-query (RPQ) expression DAG — a concrete path is the DAG of
// plain labels — its plan (DagPlan), the one planner that costs and
// decomposes it into the blocks its fold chains, and the element builder
// (core.elem) that the plan walk (core.node) runs at an element leaf.
//
// The algebra is small and exact. An RPQ is a '/'-separated sequence of
// elements; each element is a label set (alternation — a single label is
// the singleton set) under a bounded repetition [MinRep, MaxRep]
// (optional is [0,1], a plain label [1,1]). The relation of an element
// is U = ⋃_{r=max(1,MinRep)..MaxRep} A^r with A the union of the label
// relations; the relation of the whole query is the fold
//
//	R_i = R_{i-1}∘U_i ∪ (eps_{i-1} ? U_i : ∅) ∪ (skip_i ? R_{i-1} : ∅)
//	eps_i = eps_{i-1} ∧ skip_i            (skip_i ⇔ MinRep_i = 0)
//
// with R_0 = ∅, eps_0 = true. Because composition distributes over
// union — R∘(S∪T) = R∘S ∪ R∘T — this fold is exactly the union of the
// relations of every concrete path the expression expands to, which is
// what the equivalence tests pin (bit-identical, since every kernel is
// representation-canonical: a row's form depends on its final count
// alone). The same law is how the fold runs: the plan is the left-deep
// chain of nodes over the prefixes [0, hi_i), and for i > 1, R_i is one step
//
//	R_i = (R_{i-1} ∪ eps_{i-1}·I) ∘ (U_i ∪ skip_i·I), without the I∘I term
//
// whose two identity terms are fused into the sharded kernel
// (bitset.HybridRelation.Extend) — eps makes every vertex a left position,
// skip adds each left row to its own output — so no union pass follows it.
// When U_i is a single power (MaxRep_i = 1, or a plain label) the step
// composes through the labels of A_i straight from the graph
// (bitset.Rows.ComposeShard over several operands) and U_i is never a
// relation (a step node); only the first block's U_1 = R_1, and a U_i that is a
// union of powers, are built (bitset.UnionCSR for the base) — the latter
// then joined (a join node). The same step joins any two intervals of a
// query, eps read off the left one and skip off the right one, so the walk
// runs any interval tree, not only the fold's chain.
// An unrolled element is itself a chain of such steps,
//
//	U = A^lo ∘ (A ∪ I)^(MaxRep−lo),  lo = max(1, MinRep)
//
// powers up to lo and then skip steps through A's labels (core.elem). A
// whole-query MinLen of 0 (every element optional) would make the identity
// relation a member of the union; compilers must reject it, and
// DagPlan.validate panics on it.
//
// R_i and U_i are functions of their elements alone — eps_i too — so with
// a relation cache they are segments like a concrete path's: keyed by
// their element interval (core.key: relcache.AppendElem per element, under
// which a run of plain labels is that label path's key), probed before they
// are built, published when they are (core.node, core.elem). A query that repeats is
// then a whole-query hit whatever its shape, and one that shares a prefix
// or an element with an earlier query starts from it.

// MaxRepetition bounds an element's repetition upper bound. Unrolled
// powers are materialized relations, so an unbounded (or absurd) MaxRep
// is a resource bug, not a feature; 64 is far beyond any census-bounded
// path length while still catching `a{1,1000000}` at parse time.
const MaxRepetition = 64

// MaxExpansions bounds how many concrete label paths a query's estimate
// sums (Planner.Estimate) and an expansion-based evaluation enumerates;
// beyond it a pattern is almost certainly a mistake, and summing its
// expansions would cost one lookup each for an estimate the fold's
// independence model gives at once.
const MaxExpansions = 10000

// RPQElem is one '/'-separated element of a compiled RPQ: an
// alternation over Labels (sorted ascending, deduplicated) repeated
// between MinRep and MaxRep times. A plain label is {l} with bounds
// [1,1]; `x?` is bounds [0,1]; `x{2,3}` is bounds [2,3]; `*` is the
// whole vocabulary with bounds [1,1].
type RPQElem struct {
	// Labels is the alternation's label set, sorted ascending and
	// deduplicated (so equal elements compare equal and estimates are
	// order-independent).
	Labels []int
	// MinRep and MaxRep bound the repetition count, 0 ≤ MinRep ≤ MaxRep,
	// 1 ≤ MaxRep ≤ MaxRepetition. MinRep 0 makes the element skippable.
	MinRep, MaxRep int
}

// simple reports whether the element is a plain single label — the case
// the zig-zag/bushy machinery already handles natively.
func (e RPQElem) simple() bool {
	return len(e.Labels) == 1 && e.MinRep == 1 && e.MaxRep == 1
}

// validate panics unless the element, the i-th of its query, is
// well-formed over a numLabels-label vocabulary: a sorted deduplicated
// non-empty in-range label set and sane repetition bounds.
func (e RPQElem) validate(i, numLabels int) {
	if len(e.Labels) == 0 {
		panic(fmt.Sprintf("exec: RPQ element %d has no labels", i))
	}
	for j, l := range e.Labels {
		if l < 0 || l >= numLabels {
			panic(fmt.Sprintf("exec: RPQ element %d label %d out of range [0,%d)", i, l, numLabels))
		}
		if j > 0 && e.Labels[j-1] >= l {
			panic(fmt.Sprintf("exec: RPQ element %d labels not sorted/deduplicated", i))
		}
	}
	if e.MinRep < 0 || e.MaxRep < 1 || e.MinRep > e.MaxRep || e.MaxRep > MaxRepetition {
		panic(fmt.Sprintf("exec: RPQ element %d repetition bounds {%d,%d} invalid", i, e.MinRep, e.MaxRep))
	}
}

// skippable reports whether the element may match the empty path.
func (e RPQElem) skippable() bool { return e.MinRep == 0 }

// describe renders the element with numeric label ids (the graph-free
// form; callers with a vocabulary render their own).
func (e RPQElem) describe() string {
	var b strings.Builder
	if len(e.Labels) == 1 {
		fmt.Fprintf(&b, "%d", e.Labels[0])
	} else {
		b.WriteByte('(')
		for i, l := range e.Labels {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%d", l)
		}
		b.WriteByte(')')
	}
	switch {
	case e.MinRep == 1 && e.MaxRep == 1:
	case e.MinRep == 0 && e.MaxRep == 1:
		b.WriteByte('?')
	case e.MinRep == e.MaxRep:
		fmt.Fprintf(&b, "{%d}", e.MinRep)
	default:
		fmt.Fprintf(&b, "{%d,%d}", e.MinRep, e.MaxRep)
	}
	return b.String()
}

// RPQDag is a compiled regular path query: the element sequence of the
// expression DAG. It is immutable after construction and safe to share
// across goroutines; compile it once (pathsel.Compile) and execute it
// many times.
type RPQDag struct {
	// Elems are the '/'-separated elements in query order.
	Elems []RPQElem
}

// MinLen is the shortest concrete path length the expression matches.
func (d *RPQDag) MinLen() int {
	n := 0
	for _, e := range d.Elems {
		n += e.MinRep
	}
	return n
}

// MaxLen is the longest concrete path length the expression matches.
func (d *RPQDag) MaxLen() int {
	n := 0
	for _, e := range d.Elems {
		n += e.MaxRep
	}
	return n
}

// ConcretePath returns the query's single concrete path when every
// element is a plain label — the query whose plan is one run's tree.
func (d *RPQDag) ConcretePath() (paths.Path, bool) {
	p := make(paths.Path, 0, len(d.Elems))
	for _, e := range d.Elems {
		if !e.simple() {
			return nil, false
		}
		p = append(p, e.Labels[0])
	}
	return p, true
}

// PathDag is ConcretePath's inverse: the query of one concrete path, every
// element a plain label. It retains p, which the caller must not modify.
func PathDag(p paths.Path) *RPQDag {
	d := &RPQDag{Elems: make([]RPQElem, len(p))}
	for i := range p {
		d.Elems[i] = RPQElem{Labels: p[i : i+1 : i+1], MinRep: 1, MaxRep: 1}
	}
	return d
}

// Describe renders the DAG with numeric label ids.
func (d *RPQDag) Describe() string {
	parts := make([]string, len(d.Elems))
	for i, e := range d.Elems {
		parts[i] = e.describe()
	}
	return strings.Join(parts, "/")
}

// Expansions enumerates the concrete label paths the expression matches,
// deduplicated (overlapping repetition windows like `a{1,2}/a{1,2}`
// reach the same path twice) in deterministic first-reached order:
// repetition counts ascending per element, labels in stored (sorted)
// order, earlier elements varying slowest. It returns ok=false without
// a partial result when the expansion exceeds limit — the cross-product
// blowup the DAG execution path exists to avoid.
//
// It allocates a constant number of times however many paths it returns,
// two or three below length 32: the walk is sized up front from per-length
// counts of the paths it will reach (lengthCounts), and the paths are
// slices of one shared slab, each capped at its own length — an append to
// one reallocates it and never writes into the next, but keeping one
// keeps the whole slab alive, so a caller that retains a path clones it.
// A repeat is caught in an open-addressing table of positions keyed by an
// integer hash of the path and confirmed label by label, so deduplication
// is exact at any label range; the table is not built when the counts
// show that no path is reached twice. When the counts show more than
// limit distinct paths, Expansions refuses before walking at all.
func (d *RPQDag) Expansions(limit int) (exps []paths.Path, ok bool) {
	limit = max(limit, 0)
	ceil := limit // counts saturate here, one past limit
	if ceil < math.MaxInt {
		ceil++
	}
	ml := d.MaxLen()
	var room [64]int
	buf := room[:]
	if need := 2 * (ml + 1); need > len(buf) {
		buf = make([]int, need)
	}
	raw, distinct := buf[:ml+1], buf[ml+1:2*(ml+1)]
	d.lengthCounts(raw, distinct, ceil)
	total, lower := 0, 0
	for l := range raw {
		total = min(total+raw[l], ceil)
		lower = min(lower+distinct[l], ceil)
	}
	if lower > limit {
		return nil, false
	}
	// At most n paths come out; their labels are at most those of the n
	// longest paths reached.
	n := min(total, limit)
	labels, left := 0, n
	for l := ml; l > 0 && left > 0; l-- {
		c := min(raw[l], left)
		labels, left = labels+c*l, left-c
	}
	// The slab's head is the prefix being walked.
	slab := make([]int, ml+labels)
	x := expander{
		elems:  d.Elems,
		prefix: slab[:0:ml],
		slab:   slab[ml:ml],
		exps:   make([]paths.Path, 0, n),
		limit:  limit,
	}
	if total > lower {
		// Some length is reached by more than one repetition vector, so a
		// path may come twice: dedup. A load factor of at most ½ keeps the
		// probes short.
		if n >= math.MaxInt32 {
			panic("exec: expansion table exceeds int32 positions")
		}
		size := 2
		for size < 2*n {
			size <<= 1
		}
		x.table = make([]int32, size)
		x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	if !x.elem(0, hashSeed) {
		return nil, false
	}
	return x.exps, true
}

// lengthCounts fills, for every path length l ≤ MaxLen, raw[l] — how many
// paths of length l the enumeration reaches, repeats included: the sum
// over repetition vectors r with Σr = l of Π_e |L_e|^r_e — and distinct[l],
// a lower bound on how many of them differ: the largest single term of
// that sum, since one repetition vector's paths are all distinct (each
// element's labels are distinct, and its segment's span is fixed). Paths
// of different lengths never coincide, so Σ distinct bounds the distinct
// count from below and Σ raw from above. Both saturate at ceil.
func (d *RPQDag) lengthCounts(raw, distinct []int, ceil int) {
	clear(raw)
	clear(distinct)
	raw[0], distinct[0] = 1, 1
	top := 0 // the longest length reached by the elements so far
	for _, e := range d.Elems {
		// In place, longest first: raw[l-r] is still the previous element's.
		for l := top + e.MaxRep; l >= 0; l-- {
			sum, most, pow := 0, 0, 1 // pow = |L_e|^r
			for r := 0; r <= min(e.MaxRep, l); r++ {
				if r >= e.MinRep && l-r <= top {
					sum = min(sum+satMul(raw[l-r], pow, ceil), ceil)
					most = max(most, satMul(distinct[l-r], pow, ceil))
				}
				pow = satMul(pow, len(e.Labels), ceil)
			}
			raw[l], distinct[l] = sum, most
		}
		top += e.MaxRep
	}
}

// satMul is a·b for non-negative a, b, saturated at ceil.
func satMul(a, b, ceil int) int {
	if b != 0 && a > ceil/b {
		return ceil
	}
	return min(a*b, ceil)
}

// hashSeed and hashMul define the path hash the expander dedups on:
// h' = (h ^ label) · hashMul per label, whose top bits pick the slot.
const (
	hashSeed = 0x632be59bd9b4e019
	hashMul  = 0x9e3779b97f4a7c15
)

// expander is Expansions' walk: prefix is the path being reached, and
// every path reached for the first time is copied into slab and handed
// out as a capped slice of it. table holds positions into exps plus one
// (0 is empty), slotted by the top bits of the path hash; it is nil when
// no path can be reached twice.
type expander struct {
	elems  []RPQElem
	prefix paths.Path
	slab   []int
	exps   []paths.Path
	table  []int32
	shift  uint
	limit  int
}

// elem walks element i onward; h is the hash of the prefix.
func (x *expander) elem(i int, h uint64) bool {
	if i == len(x.elems) {
		return x.reach(h)
	}
	e := &x.elems[i]
	for r := e.MinRep; r <= e.MaxRep; r++ {
		if !x.rep(i, r, h) {
			return false
		}
	}
	return true
}

// rep appends r more labels of element i, then walks on.
func (x *expander) rep(i, r int, h uint64) bool {
	if r == 0 {
		return x.elem(i+1, h)
	}
	at := len(x.prefix)
	x.prefix = x.prefix[:at+1]
	for _, l := range x.elems[i].Labels {
		x.prefix[at] = l
		if !x.rep(i, r-1, (h^uint64(l))*hashMul) {
			return false
		}
	}
	x.prefix = x.prefix[:at]
	return true
}

// reach records the prefix, a whole path with hash h, unless it was
// reached before; it reports false when a new path would exceed the limit.
func (x *expander) reach(h uint64) bool {
	p := x.prefix
	if x.table != nil {
		mask := len(x.table) - 1
		s := int(h >> x.shift)
		for ; x.table[s] != 0; s = (s + 1) & mask {
			if x.exps[x.table[s]-1].Equal(p) {
				return true
			}
		}
		if len(x.exps) >= x.limit {
			return false
		}
		x.table[s] = int32(len(x.exps) + 1)
	}
	at := len(x.slab)
	x.slab = append(x.slab, p...)
	x.exps = append(x.exps, x.slab[at:len(x.slab):len(x.slab)])
	return true
}

// DagPlan is a query together with how to execute it — the one plan form:
// the query's elements and one plan tree over their intervals (PlanTree),
// which Run walks. A concrete path's tree is a zig-zag leaf or a tree of
// joins over them. An RPQ's is the left-deep chain of its blocks — maximal
// plain-label runs, each under its own plan tree, and single
// complex elements — folded left to right: each block after the first is
// either composed through from the graph (a step node) or built and joined
// (a join node). Build it with Planner.Plan, or by hand from a path and a
// tree with PathPlan; execute it with Run.
type DagPlan struct {
	// Elems is the query's element sequence, whose positions the tree's
	// intervals are. The plan retains it; the caller must not modify it.
	Elems []RPQElem
	// Tree is the plan, spanning [0, len(Elems)).
	Tree *PlanTree
	// Costs is the estimated cost of each of a concrete path's zig-zag
	// plans, indexed by start position — the spread Tree was chosen over.
	// It never depends on the cache, and is nil for an RPQ and for a
	// hand-built plan.
	Costs []float64
	// Cost is the estimated total intermediate volume: run plan costs (the
	// plan-tree DP objective), the inputs of an unrolled element's
	// steps — its powers below max(1, MinRep), then the running union of the
	// powers from there — and the inputs of every step of the fold: both
	// sides of a join node, the prefix alone where a step node composes
	// through the block, whether or not the prefix may be empty. A step's ε
	// and skip terms are charged nothing of their own.
	Cost float64
	// ResultEst is the estimated pair count of the final relation under
	// the independence model (exact per-block estimates folded with an
	// n-normalized join); zero for a single-block plan, whose only block
	// feeds no join and whose size is never asked of the estimator.
	ResultEst float64
}

// PathPlan is the hand-built plan executing the concrete path p under
// tree, which must span [0, len(p)): a forced zig-zag start is the leaf
// &PlanTree{Lo: 0, Hi: len(p), Start: s}. It carries no estimates.
func PathPlan(p paths.Path, tree *PlanTree) *DagPlan {
	return &DagPlan{Elems: PathDag(p).Elems, Tree: tree}
}

// Describe renders the plan: a run by its tree, positions relative to the
// run (PlanTree.Describe), an element by itself, and a fold chain flat, its
// blocks joined by the fold operator — "(b0 ⋈ b1 ⋈ b2)".
func (dp *DagPlan) Describe() string { return render(dp.Elems, dp.Tree) }

// render renders the subtree t of a plan over elems.
func render(elems []RPQElem, t *PlanTree) string {
	switch {
	case plain(elems[t.Lo:t.Hi]):
		return t.describe(t.Lo, t.Hi-t.Lo)
	case t.IsLeaf():
		return elems[t.Lo].describe()
	}
	var room [8]string
	return "(" + strings.Join(chain(elems, t, room[:0]), " ⋈ ") + ")"
}

// chain appends the renderings of the blocks the fold node t joins, left
// to right: those of its left chain, then its right block's.
func chain(elems []RPQElem, t *PlanTree, out []string) []string {
	if t.IsLeaf() || plain(elems[t.Lo:t.Hi]) {
		return append(out, render(elems, t))
	}
	return append(chain(elems, t.Left, out), render(elems, t.right()))
}

// plain reports whether every element is a plain label: whether the
// interval is a concrete path.
func plain(elems []RPQElem) bool {
	for _, e := range elems {
		if !e.simple() {
			return false
		}
	}
	return true
}

// optional reports whether every element may match the empty path:
// whether the interval may.
func optional(elems []RPQElem) bool {
	for _, e := range elems {
		if !e.skippable() {
			return false
		}
	}
	return true
}

// validate panics unless the plan is self-consistent over a
// numLabels-label vocabulary: well-formed elements, a tree that is a plan
// for all of them (PlanTree.validate), and at least one element that cannot
// match the empty path (an all-optional query's relation would include the
// identity — compilers reject it before a plan exists). A malformed plan is
// a caller bug, not a runtime failure, matching the executor's precondition
// contract.
func (dp *DagPlan) validate(numLabels int) {
	if dp == nil || len(dp.Elems) == 0 {
		panic("exec: empty plan")
	}
	for i, e := range dp.Elems {
		e.validate(i, numLabels)
	}
	dp.Tree.validate(dp.Elems, 0, len(dp.Elems))
	if optional(dp.Elems) {
		panic("exec: plan may match the empty path")
	}
}

// elemEst estimates the pair count of one complex element's relation
// U = ⋃_{r=lo..MaxRep} A^r, lo = max(1, MinRep), and the cost of building
// it: the inputs of the steps core.elem runs — each power A^r below lo,
// then the running union ⋃_{q=lo..r} A^q entering each skip step.
// Single-label powers are estimated exactly by the estimator (the power of
// label l is the repeated-label path l^r); multi-label powers use the
// independence model s·(s/n)^(r-1) over the alternation estimate
// s = Σ_l Est({l}). Union sizes are summed (an upper bound; overlap is
// workload-dependent and a bound is what admission wants).
func (pl Planner) elemEst(e RPQElem, n int) (est float64, buildCost float64) {
	single := len(e.Labels) == 1
	var s1 float64
	power := make(paths.Path, 1, e.MaxRep)
	for _, l := range e.Labels {
		power[0] = l
		s1 += pl.Est.Estimate(power)
	}
	lo := max(1, e.MinRep)
	pow := s1
	for r := 1; r <= e.MaxRep; r++ {
		if r > 1 {
			if single {
				power = power[:0]
				for i := 0; i < r; i++ {
					power = append(power, e.Labels[0])
				}
				pow = pl.Est.Estimate(power)
			} else if n > 0 {
				pow *= s1 / float64(n)
			}
		}
		if r >= lo {
			est += pow
		}
		switch {
		case r == e.MaxRep:
		case r < lo:
			buildCost += pow // the power entering the next power step
		default:
			buildCost += est // the running union entering the next skip step
		}
	}
	return est, buildCost
}

// Plan plans a compiled query — the one way to plan — in one pass over
// its blocks, left to right: maximal plain-label runs — each planned over
// its segment table as the cheapest plan tree, so cached segments,
// interior starts, and bushy joins all apply inside a run — and single
// complex elements, costed by their
// unroll intermediates. Each block is chained onto the prefix before it as
// it is planned: the first block's node, then per block after it a node
// over the prefix so far. A block one step from the graph — a one-label
// run, an element that is not unrolled (alternation, wildcard, optional
// label) — is composed through by a step node: it has no relation of its
// own, whatever its identity terms, and the step consumes the prefix alone.
// Any other block is built by its own subtree — a run's tree, an element
// leaf — and a join node consumes both materialized inputs. A concrete
// path is the one-run case, and its tree is exactly the plan-tree choice
// over the path.
//
// The plan's Cost sums the blocks' costs, then the chain's steps — in
// that order, so steps keeps the latter until the last block is priced;
// its ResultEst folds the block sizes: size_i = size·est/n (join) + est when
// the prefix may be empty + size when the block is skippable — the
// estimator's image of the executor's R_i recurrence. n is the vertex
// universe (join normalization); the DAG must be well-formed (Run checks
// the plan's copy of it). The plan is decided once, against the Cached
// view as it is now.
func (pl Planner) Plan(d *RPQDag, n int) *DagPlan {
	dp := &DagPlan{Elems: d.Elems}
	// The chain's nodes share one allocation: at most an element leaf and
	// a chain node per block, and a block spans at least one element.
	var nodes []PlanTree
	node := func(t PlanTree) *PlanTree {
		if nodes == nil {
			nodes = make([]PlanTree, 0, 2*len(d.Elems))
		}
		nodes = append(nodes, t)
		return &nodes[len(nodes)-1]
	}
	steps := make([]float64, 0, 8) // each chain step's inputs
	size, eps := 0.0, true
	for lo, hi := 0, 1; lo < len(d.Elems); lo, hi = hi, hi+1 {
		e := &d.Elems[lo]
		var u *PlanTree // the block's run tree; nil for an element
		var est, cost float64
		if !e.simple() {
			est, cost = pl.elemEst(*e, n)
		} else {
			for hi < len(d.Elems) && d.Elems[hi].simple() {
				hi++
			}
			run := make(paths.Path, hi-lo)
			for x := range run {
				run[x] = d.Elems[lo+x].Labels[0]
			}
			var costs []float64
			u, cost, costs = pl.segments(run).chooseTree(pl.Cached, lo)
			if len(run) == len(d.Elems) {
				dp.Costs = costs
			} else {
				est = pl.Est.Estimate(run)
			}
		}
		dp.Cost += cost
		skip := u == nil && e.skippable()
		through := hi-lo == 1 && e.MaxRep == 1
		if u == nil && (lo == 0 || !through) {
			u = node(PlanTree{Lo: lo, Hi: hi, Start: -1})
		}
		if lo == 0 {
			dp.Tree, size, eps = u, est, skip
			continue
		}
		if through {
			dp.Tree = node(PlanTree{Lo: 0, Hi: hi, Start: -1, Left: dp.Tree})
			steps = append(steps, size)
		} else {
			dp.Tree = node(PlanTree{Lo: 0, Hi: hi, Start: -1, Left: dp.Tree, Right: u})
			steps = append(steps, size+est)
		}
		next := 0.0
		if n > 0 {
			next = size * est / float64(n)
		}
		if eps {
			next += est
		}
		if skip {
			next += size
		}
		size, eps = next, eps && skip
	}
	for _, c := range steps {
		dp.Cost += c
	}
	dp.ResultEst = size
	return dp
}

// Estimate returns the estimated size of the query Plan planned as dp:
// one lookup of the path when it is a concrete path; otherwise the sum,
// in Expansions' order, of the estimates of its concrete expansions when
// there are at most MaxExpansions of them, and dp.ResultEst, the chain's
// independence-model size, when there are more. Plan never asks for the
// whole query — a caller may plan one label beyond its estimator's reach —
// so this is the one call that does.
func (pl Planner) Estimate(dp *DagPlan) float64 {
	d := RPQDag{Elems: dp.Elems}
	if dp.Costs != nil {
		p, _ := d.ConcretePath()
		return pl.Est.Estimate(p)
	}
	exps, ok := d.Expansions(MaxExpansions)
	if !ok {
		return dp.ResultEst
	}
	var est float64
	for _, p := range exps {
		est += pl.Est.Estimate(p)
	}
	return est
}

// elem builds one complex element's relation U: adopted whole from the
// cache where an earlier execution published it under the element's key,
// else built from the alternation base A — the union of its label
// relations in one pass (core.fill) — by a chain of steps through the
// label set from the graph,
//
//	U = A^lo ∘ (A ∪ I)^(MaxRep−lo),  lo = max(1, MinRep)
//
// the powers A^r = A^(r−1) ∘ A up to lo, then skip steps
// P_r = P_(r−1) ∘ (A ∪ I) = ⋃_{q=lo..r} A^q, the last of which is U. Each
// step goes through core.step, into a relation it takes, and the power it
// read is released once it has run, so the element holds at most two at a
// time. The last step's key is U's element key; a power below it has the
// key of its repeated label, the one a concrete query's segments use, so a
// `b{2,3}` adopts or publishes the `bb` of a `b/b`. The skip steps below U
// and multi-label powers have no key and are not published. one is the
// element's interval of the query, of length one.
// A root element nobody keeps and nothing publishes (see counts) counts its
// last step, or its base when it is not unrolled.
func (x *core) elem(one []RPQElem, root bool) (*bitset.HybridRelation, error) {
	e := &one[0]
	var room, sroom [keyRoom]byte
	key := x.key(room[:0], one)
	count := root && x.counts(key)
	if rel, err := x.whole(key); rel != nil || err != nil {
		return rel, err
	}
	cur, err := x.fill(e.Labels, count && e.MaxRep == 1)
	if err != nil {
		return nil, err
	}
	if e.MaxRep == 1 {
		x.publish(key, cur)
		return cur, nil
	}
	lo := max(1, e.MinRep)
	var power []byte // the key of the current single-label power, a label path's
	if x.opt.Cache != nil && len(e.Labels) == 1 {
		power = relcache.AppendElem(sroom[:0], e.Labels, 1, 1)
	}
	for r := 2; r <= e.MaxRep; r++ {
		if power != nil {
			power = relcache.AppendElem(power, e.Labels, 1, 1)
		}
		var stepKey []byte
		switch {
		case r == e.MaxRep:
			stepKey = key
		case r <= lo:
			stepKey = power
		}
		x.ints = append(x.ints, cur.Pairs())
		// The element's own key, the last power's, was probed by whole.
		next, err := x.step(stepKey, r < e.MaxRep, count && r == e.MaxRep, cur.Extend(false, r > lo), nil, e.Labels)
		if err != nil {
			return nil, err
		}
		x.drop(cur)
		cur = next
	}
	return cur, nil
}
