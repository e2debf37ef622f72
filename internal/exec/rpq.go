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
// plain labels — the one planner that costs and decomposes it, and the
// fold that executes the plan left-to-right on the hybrid substrate.
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
// alone). The same law is how the fold runs. For i > 1, R_i is one step
//
//	R_i = (R_{i-1} ∪ eps_{i-1}·I) ∘ (U_i ∪ skip_i·I), without the I∘I term
//
// whose two identity terms are fused into the sharded kernel
// (bitset.HybridRelation.Extend) — eps makes every vertex a left position,
// skip adds each left row to its own output — so no union pass follows it.
// When U_i is a single power (MaxRep_i = 1, or a plain label) the step
// composes through the labels of A_i straight from the graph
// (bitset.Rows.ComposeShard over several operands) and U_i is never a
// relation; only the first block's U_1 = R_1, and a U_i that is a union of
// powers, are built (bitset.UnionCSR for the base) — the latter then joined.
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
// their element sequence (relcache.AppendElem, under which a prefix of
// plain labels is that label path's key), probed before they are built,
// published when they are (core.fold, core.elem). A query that repeats is
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
// element is a plain label — the query whose plan is one run block.
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

// DagBlockPlan is one block of a plan: either a maximal run of
// plain-label elements (Run non-empty), executed as an ordinary path
// segment under Tree — a leaf is a zig-zag plan, a join node a bushy
// tree — or one complex element (Elem), whose relation is built from its
// alternation's base by a chain of steps through its labels.
type DagBlockPlan struct {
	// Lo, Hi delimit the element range [Lo, Hi) of the query this block
	// covers; complex-element blocks always span exactly one element.
	Lo, Hi int
	// Run is the run block's concrete label path (nil for element
	// blocks); Tree is its plan, spanning [0, len(Run)).
	Run  paths.Path
	Tree *PlanTree
	// Costs is the estimated cost of each of Run's zig-zag plans, indexed
	// by start position — the spread Tree was chosen over (nil for element
	// blocks and hand-built plans). It never depends on the cache.
	Costs []float64
	// Elem is the element of a complex-element block.
	Elem RPQElem
	// Est is the estimated pair count of the block's finished relation,
	// what the fold join after it consumes. A plan's only block feeds no
	// join, so there it is left zero and never asked of the estimator.
	Est float64
}

// operand returns the label set the fold composes the block through, or
// nil when the block's relation is materialised and joined. A block is an
// operand when it is a single step from the graph — a one-label run, or an
// element that is not unrolled (alternation, wildcard, optional label) —
// and there is a relation to step from: it is not the plan's first block
// (i > 0). A prefix that may be empty needs no relation of the block's own
// either: its eps term is one more target of the step. DagPlan.fold and
// core.fold both ask here, so what is costed is what is run.
func (b *DagBlockPlan) operand(i int) []int {
	switch {
	case i == 0:
	case len(b.Run) == 1:
		return b.Run
	case b.Run == nil && b.Elem.MaxRep == 1:
		return b.Elem.Labels
	}
	return nil
}

// skippable reports whether the block may match the empty path.
func (b *DagBlockPlan) skippable() bool { return b.Run == nil && b.Elem.skippable() }

// DagPlan is a query together with how to execute it — the one plan form:
// the query's elements decomposed into blocks, each carrying the labels it
// evaluates, folded left to right. A concrete path is a single run block,
// a zig-zag plan a single run block whose Tree is a leaf. Build it with
// Planner.Plan, or by hand from a path and a tree with PathPlan; execute
// it with Run.
type DagPlan struct {
	Blocks []DagBlockPlan
	// Cost is the estimated total intermediate volume: run-block plan
	// costs (the zig-zag/bushy DP objective), the inputs of an unrolled
	// element's steps — its powers below max(1, MinRep), then the running
	// union of the powers from there — and the inputs of every step of the
	// fold: both sides of a block-boundary join, the prefix alone where the
	// block is composed through, whether or not the prefix may be empty.
	// A step's ε and skip terms are charged nothing of their own.
	Cost float64
	// ResultEst is the estimated pair count of the final relation under
	// the independence model (exact per-block estimates folded with an
	// n-normalized join); zero for a single-block plan, see
	// DagBlockPlan.Est.
	ResultEst float64
}

// PathPlan is the hand-built plan executing the concrete path p under
// tree, which must span [0, len(p)): a forced zig-zag start is the leaf
// &PlanTree{Lo: 0, Hi: len(p), Start: s}. It carries no estimates.
func PathPlan(p paths.Path, tree *PlanTree) *DagPlan {
	dp := newPlan()
	dp.Blocks = append(dp.Blocks, DagBlockPlan{Lo: 0, Hi: len(p), Run: p, Tree: tree})
	return dp
}

// newPlan allocates an empty plan with room for one block beside it, so
// the plan of a concrete path — a one-run DAG, the common query — costs
// one allocation.
func newPlan() *DagPlan {
	a := &struct {
		dp    DagPlan
		first [1]DagBlockPlan
	}{}
	a.dp.Blocks = a.first[:0]
	return &a.dp
}

// Describe renders the plan: run blocks by their tree plan, element
// blocks by their element, joined by the fold operator.
func (dp *DagPlan) Describe() string {
	if len(dp.Blocks) == 1 {
		return dp.Blocks[0].describe()
	}
	parts := make([]string, len(dp.Blocks))
	for i, b := range dp.Blocks {
		parts[i] = b.describe()
	}
	return "(" + strings.Join(parts, " ⋈ ") + ")"
}

func (b DagBlockPlan) describe() string {
	if b.Run != nil {
		return b.Tree.Describe(len(b.Run))
	}
	return b.Elem.describe()
}

// validate panics unless the plan is self-consistent over a
// numLabels-label vocabulary: blocks that tile an element range from 0
// without gaps, every run block a non-empty in-range label path under a
// tree that spans it, every element block one well-formed complex
// element, and at least one block that cannot match the empty path (an
// all-optional query's relation would include the identity — compilers
// reject it before a plan exists). A malformed plan is a caller bug, not a
// runtime failure, matching the executor's precondition contract.
func (dp *DagPlan) validate(numLabels int) {
	if dp == nil || len(dp.Blocks) == 0 {
		panic("exec: empty plan")
	}
	at, optional := 0, true
	for i, b := range dp.Blocks {
		if b.Lo != at || b.Hi <= b.Lo {
			panic(fmt.Sprintf("exec: plan block %d spans [%d,%d) at element %d", i, b.Lo, b.Hi, at))
		}
		if b.Run != nil {
			if len(b.Run) != b.Hi-b.Lo {
				panic(fmt.Sprintf("exec: plan block %d run length %d over %d elements", i, len(b.Run), b.Hi-b.Lo))
			}
			for _, l := range b.Run {
				if l < 0 || l >= numLabels {
					panic(fmt.Sprintf("exec: plan block %d label %d out of range [0,%d)", i, l, numLabels))
				}
			}
			b.Tree.validate(0, len(b.Run))
		} else {
			if b.Hi != b.Lo+1 {
				panic(fmt.Sprintf("exec: plan element block %d spans %d elements", i, b.Hi-b.Lo))
			}
			b.Elem.validate(b.Lo, numLabels)
		}
		optional = optional && b.skippable()
		at = b.Hi
	}
	if optional {
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

// Plan plans a compiled query — the one way to plan. The element sequence
// is decomposed into maximal plain-label runs — each planned over its
// segment table (the cheapest plan tree when bushy, the cheapest zig-zag
// otherwise), so cached segments, interior starts, and bushy joins all
// apply inside a run — and single complex elements, costed by their unroll
// intermediates. A concrete path is the one-run case, and its plan is
// exactly the zig-zag/bushy choice over the path. Each block's cost is
// added as it is planned, then the fold's (DagPlan.fold). n is the vertex
// universe (join normalization); the DAG must be well-formed (Run checks
// the plan's copy of it). The plan is decided once, against the Cached
// view as it is now.
func (pl Planner) Plan(d *RPQDag, n int, bushy bool) *DagPlan {
	dp := newPlan()
	for i := 0; i < len(d.Elems); {
		e := d.Elems[i]
		if !e.simple() {
			est, buildCost := pl.elemEst(e, n)
			dp.Blocks = append(dp.Blocks, DagBlockPlan{Lo: i, Hi: i + 1, Elem: e, Est: est})
			dp.Cost += buildCost
			i++
			continue
		}
		j := i + 1
		for j < len(d.Elems) && d.Elems[j].simple() {
			j++
		}
		run := make(paths.Path, j-i)
		for x := range run {
			run[x] = d.Elems[i+x].Labels[0]
		}
		segs := pl.segments(run)
		tree, cost := segs.chooseTree(bushy, pl.Cached)
		b := DagBlockPlan{Lo: i, Hi: j, Run: run, Tree: tree, Costs: segs.costs}
		if len(run) < len(d.Elems) {
			b.Est = pl.Est.Estimate(run)
		}
		dp.Blocks = append(dp.Blocks, b)
		dp.Cost += cost
		i = j
	}
	dp.fold(n)
	return dp
}

// Estimate returns the estimated size of query d, which Plan planned as
// dp: one lookup of the run when dp is one run block (a concrete path);
// otherwise the sum, in Expansions' order, of the estimates of d's
// concrete expansions when there are at most MaxExpansions of them, and
// dp.ResultEst, the fold's independence-model size, when there are more.
// Plan never asks for the whole query — a caller may plan one label beyond
// its estimator's reach — so this is the one call that does.
func (pl Planner) Estimate(d *RPQDag, dp *DagPlan) float64 {
	if len(dp.Blocks) == 1 && dp.Blocks[0].Run != nil {
		return pl.Est.Estimate(dp.Blocks[0].Run)
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

// fold adds the fold's steps to the plan's cost and sets ResultEst from
// the block sizes: size_i = size·est/n (join) + est when the prefix may be
// empty + size when the block is skippable — the estimator's image of the
// executor's R_i recurrence. A join after the first block consumes both
// materialized inputs; a block composed through has no relation of its
// own to consume, whatever its identity terms.
func (dp *DagPlan) fold(n int) {
	size, eps := 0.0, true
	for i := range dp.Blocks {
		b := &dp.Blocks[i]
		skip := b.skippable()
		if i == 0 {
			size, eps = b.Est, skip
			continue
		}
		if b.operand(i) != nil {
			dp.Cost += size
		} else {
			dp.Cost += size + b.Est
		}
		next := 0.0
		if n > 0 {
			next = size * b.Est / float64(n)
		}
		if eps {
			next += b.Est
		}
		if skip {
			next += size
		}
		size, eps = next, eps && skip
	}
	dp.ResultEst = size
}

// elemKey encodes the one-element cache key of e into buf — what e's
// finished relation U is published under, and, the encoding being
// compositional, what a query that starts with e probes as its first
// prefix. It returns nil, no key, without a cache and for a single label
// that is not unrolled (a?): its relation is a CSR read, which the cache
// never holds.
func (x *core) elemKey(buf []byte, e RPQElem) []byte {
	if x.opt.Cache == nil || (len(e.Labels) == 1 && e.MaxRep == 1) {
		return nil
	}
	return relcache.AppendElem(buf, e.Labels, e.MinRep, e.MaxRep)
}

// elem builds one complex element's relation U: adopted whole from the
// cache where an earlier execution published it under the element's key
// (elemKey), else built from the alternation base A — the union of its
// label relations in one pass (core.fill) — by a chain of steps through the
// label set from the graph,
//
//	U = A^lo ∘ (A ∪ I)^(MaxRep−lo),  lo = max(1, MinRep)
//
// the powers A^r = A^(r−1) ∘ A up to lo, then skip steps
// P_r = P_(r−1) ∘ (A ∪ I) = ⋃_{q=lo..r} A^q, the last of which is U. Each
// step goes through core.step, into a relation it takes, and the power it
// read is released once it has run, so the element holds at most two at a
// time. The last step's key is U's element key; a power below it has its
// repeated-label path key, the one a concrete query's segments use, so a
// `b{2,3}` adopts or publishes the `bb` of a `b/b`. The skip steps below U
// and multi-label powers have no key and are not published.
// A root element nobody keeps and nothing publishes (see counts) counts its
// last step, or its base when it is not unrolled.
func (x *core) elem(e RPQElem, root bool) (*bitset.HybridRelation, error) {
	var room, sroom [keyRoom]byte
	key := x.elemKey(room[:0], e)
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
	var power paths.Path // the current single-label power as a path
	if len(e.Labels) == 1 {
		power = append(make(paths.Path, 0, e.MaxRep), e.Labels[0])
	}
	for r := 2; r <= e.MaxRep; r++ {
		if power != nil {
			power = append(power, e.Labels[0])
		}
		var stepKey []byte
		switch {
		case r == e.MaxRep:
			stepKey = key
		case r <= lo:
			stepKey = x.pathKey(sroom[:0], power)
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

// prefixKeys encodes the cache key of the plan's whole element sequence
// into buf and appends to ends, per block, where the key of the prefix
// ending with that block stops: the encoding is compositional, so
// key[:ends[i]] is the key of R_i — and, for a prefix of plain labels, the
// very key the concrete segment is cached under.
func (dp *DagPlan) prefixKeys(buf []byte, ends []int) (key []byte, _ []int) {
	key = buf
	for i := range dp.Blocks {
		if b := &dp.Blocks[i]; b.Run != nil {
			key = relcache.AppendPath(key, b.Run)
		} else {
			key = relcache.AppendElem(key, b.Elem.Labels, b.Elem.MinRep, b.Elem.MaxRep)
		}
		ends = append(ends, len(key))
	}
	return key, ends
}

// fold executes a plan: its blocks folded left-to-right by the R_i
// recurrence above. A block the plan marks as an operand (see
// DagBlockPlan.operand) is one step cur ∘ (⋃ labels) through the graph — no
// base is built for it and no relation joined; any other block's relation
// is built first — a run block through the zig-zag/bushy nodes
// (whole-segment cache fast path, bushy subtrees, sharded compose —
// everything applies), an element block through elem — and joined. Either
// way the ε and skip terms are the step's own (cur.Extend), never a union
// after it, and the step writes a relation it takes (core.step), after
// which the prefix and the block it read are released. A plan's only
// block is the root: its node may count its last step.
//
// With a cache a prefix of blocks is a segment like any other, keyed by
// its element sequence (prefixKeys), and the fold treats it the way a leaf
// treats its label segments: it probes the prefixes longest first,
// holding nothing until one hits, adopts the longest one cached — R_i;
// eps_i, a function of the elements alone, is recomputed, which is what
// makes resuming exact — and folds on from the block after it, and every
// block-boundary step it does compute goes through core.step under its
// prefix's key, so R_i is published, the last step's included: the
// query's repeat is then one probe and one copy, Intermediates empty and
// Work 0, as a concrete path's is. Without a cache no key is built and the
// root's last step is counted.
func (x *core) fold(dp *DagPlan) (*bitset.HybridRelation, error) {
	nb := len(dp.Blocks)
	var (
		cur      *bitset.HybridRelation
		room     [keyRoom]byte
		endsRoom [8]int
		key      []byte // of the whole plan; nil without a cache
		ends     []int  // key[:ends[i]] is the key of the prefix ending with block i
	)
	eps, from := true, 0
	if x.opt.Cache != nil && nb > 1 {
		key, ends = dp.prefixKeys(room[:0], endsRoom[:0])
		// The one-block prefix is block 0's own relation: its node probes it.
		for i := nb - 1; i > 0; i-- {
			rel, err := x.whole(key[:ends[i]])
			if err != nil {
				return nil, err
			}
			if rel == nil {
				continue
			}
			for j := 0; j <= i; j++ {
				eps = eps && dp.Blocks[j].skippable()
			}
			cur, from = rel, i+1
			break
		}
	}
	for i := from; i < nb; i++ {
		b := &dp.Blocks[i]
		skip := b.skippable()
		labels := b.operand(i)
		var u *bitset.HybridRelation
		if labels == nil {
			var err error
			if b.Run != nil {
				u, err = x.tree(b.Run, b.Tree, nb == 1)
			} else {
				u, err = x.elem(b.Elem, nb == 1)
			}
			if err != nil {
				return nil, err
			}
			if i == 0 {
				// R_1 = U_1 (eps_0 is true and R_0 empty).
				cur, eps = u, skip
				continue
			}
			x.ints = append(x.ints, cur.Pairs(), u.Pairs())
		} else {
			x.ints = append(x.ints, cur.Pairs())
		}
		var stepKey []byte
		if key != nil {
			stepKey = key[:ends[i]]
		}
		// The root's last step is R_i itself, so where nothing publishes it,
		// it is counted, not built: no destination.
		next, err := x.step(stepKey, false, i == nb-1 && x.counts(stepKey), cur.Extend(eps, skip), u, labels)
		if err != nil {
			return nil, err
		}
		x.drop(cur)
		x.drop(u)
		cur, eps = next, eps && skip
	}
	return cur, nil
}
