package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/paths"
)

// The planner the segment table replaced, kept as the reference the
// table-driven one is pinned to: it asks the estimator for every term of
// every sum (241 estimates for k = 6 where the table asks 20). Costs are
// compared with ==, not within ε — the table must add the same terms in
// the same order.

// PlanCost is the reference definition of a zig-zag plan's cost: the
// estimated intermediate volume of executing p with the plan starting at
// position start — the sum of estimated selectivities of every segment the
// execution materializes and feeds into a join step, excluding the final
// result (which is plan-independent). With an exact estimator it equals the
// executed Stats.Work. It panics on an empty path or out-of-range start.
func (pl Planner) PlanCost(p paths.Path, start int) float64 {
	k := len(p)
	if k == 0 {
		panic("exec: cost of empty path query")
	}
	if start < 0 || start >= k {
		panic(fmt.Sprintf("exec: plan start %d out of range [0,%d)", start, k))
	}
	var cost float64
	// Rightward intermediates p[start:j). The full segment p[start:k) is
	// fed into the first prepend step — unless start is 0, in which case
	// it is the final result and costs nothing.
	hi := k
	if start == 0 {
		hi = k - 1
	}
	for j := start + 1; j <= hi; j++ {
		cost += pl.Est.Estimate(p[start:j])
	}
	// Leftward intermediates p[i:k); p[0:k) is the final result.
	for i := start - 1; i >= 1; i-- {
		cost += pl.Est.Estimate(p[i:])
	}
	return cost
}

// refCosts is the zig-zag cost spread as it was: one PlanCost per start.
func refCosts(pl Planner, p paths.Path) []float64 {
	out := make([]float64, len(p))
	for s := range p {
		out[s] = pl.PlanCost(p, s)
	}
	return out
}

// refCheapest is the zig-zag tie-break as it was: strictly lower cost
// wins, and on ties the lowest start.
func refCheapest(costs []float64) int {
	best := 0
	for s := 1; s < len(costs); s++ {
		if costs[s] < costs[best] {
			best = s
		}
	}
	return best
}

// refTreeDP is the bushy plan search's dynamic program as it was.
func refTreeDP(pl Planner, p paths.Path) [][]treeCell {
	k := len(p)
	dp := make([][]treeCell, k)
	for i := range dp {
		dp[i] = make([]treeCell, k+1)
		dp[i][i+1] = treeCell{cost: 0, split: -1, start: i}
	}
	for length := 2; length <= k; length++ {
		for i := 0; i+length <= k; i++ {
			j := i + length
			seg := p[i:j]
			costs := refCosts(pl, seg)
			leaf := refCheapest(costs)
			best := treeCell{cost: costs[leaf], split: -1, start: i + leaf}
			if pl.Cached != nil && pl.Cached(seg) {
				best.cost = 0
			}
			for m := i + 1; m < j; m++ {
				c := dp[i][m].cost + dp[m][j].cost +
					pl.Est.Estimate(p[i:m]) + pl.Est.Estimate(p[m:j])
				if c < best.cost {
					best = treeCell{cost: c, split: m, start: -1}
				}
			}
			dp[i][j] = best
		}
	}
	return dp
}

func refBuildTree(dp [][]treeCell, i, j int) *PlanTree {
	c := dp[i][j]
	if c.split < 0 {
		return &PlanTree{Lo: i, Hi: j, Start: c.start}
	}
	return &PlanTree{
		Lo: i, Hi: j, Start: -1,
		Left:  refBuildTree(dp, i, c.split),
		Right: refBuildTree(dp, c.split, j),
	}
}

// refChooseTreeWithCost is the bushy plan search as it was.
func refChooseTreeWithCost(pl Planner, p paths.Path) (*PlanTree, float64) {
	k := len(p)
	dp := refTreeDP(pl, p)
	return refBuildTree(dp, 0, k), dp[0][k].cost
}

// refElemEst is Planner.elemEst as it was — but for the build cost of an
// unrolled element past lo = max(1, MinRep), whose steps are skip steps:
// each is charged the running union that enters it, not the power.
func refElemEst(pl Planner, e RPQElem, n int) (est float64, buildCost float64) {
	single := len(e.Labels) == 1
	var s1 float64
	power := make(paths.Path, 0, e.MaxRep)
	for _, l := range e.Labels {
		s1 += pl.Est.Estimate(paths.Path{l})
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
		if r < e.MaxRep && r < lo {
			buildCost += pow
		} else if r < e.MaxRep {
			buildCost += est
		}
	}
	return est, buildCost
}

// refPlanDag is Planner.Plan as it was — but for the estimate of a plan's
// only block, which feeds no join and is no longer asked, and for the right
// input of a join the executor no longer makes: a block after the first
// that is one step from the graph (a single label, an element that is not
// unrolled) is composed through, whether or not the prefix may be empty,
// and charged its left input only. It emits the plan as its tree: the
// left-deep chain of its blocks, each run under its tree shifted to the
// run's elements, each element a leaf.
func refPlanDag(pl Planner, d *RPQDag, n int) *DagPlan {
	type refBlock struct {
		lo, hi int
		tree   *PlanTree // nil for an element
		est    float64
	}
	dp := &DagPlan{Elems: d.Elems}
	var blocks []refBlock
	for i := 0; i < len(d.Elems); {
		if d.Elems[i].simple() {
			j := i
			run := paths.Path{}
			for j < len(d.Elems) && d.Elems[j].simple() {
				run = append(run, d.Elems[j].Labels[0])
				j++
			}
			tree, cost := refChooseTreeWithCost(pl, run)
			b := refBlock{lo: i, hi: j, tree: shiftTree(tree, i)}
			if len(run) < len(d.Elems) {
				b.est = pl.Est.Estimate(run)
			} else {
				dp.Costs = refCosts(pl, run)
			}
			blocks = append(blocks, b)
			dp.Cost += cost
			i = j
			continue
		}
		e := d.Elems[i]
		est, buildCost := refElemEst(pl, e, n)
		blocks = append(blocks, refBlock{lo: i, hi: i + 1, est: est})
		dp.Cost += buildCost
		i++
	}
	size, eps := 0.0, true
	for i, b := range blocks {
		e := d.Elems[b.lo]
		skip := b.tree == nil && e.skippable()
		u := b.tree
		if u == nil {
			u = &PlanTree{Lo: b.lo, Hi: b.hi, Start: -1}
		}
		if i == 0 {
			dp.Tree, size, eps = u, b.est, skip
			continue
		}
		if oneStep := b.hi-b.lo == 1 && e.MaxRep == 1; oneStep {
			dp.Tree = &PlanTree{Lo: 0, Hi: b.hi, Start: -1, Left: dp.Tree}
			dp.Cost += size
		} else {
			dp.Tree = &PlanTree{Lo: 0, Hi: b.hi, Start: -1, Left: dp.Tree, Right: u}
			dp.Cost += size + b.est
		}
		next := 0.0
		if n > 0 {
			next = size * b.est / float64(n)
		}
		if eps {
			next += b.est
		}
		if skip {
			next += size
		}
		size, eps = next, eps && skip
	}
	dp.ResultEst = size
	return dp
}

// shiftTree is a copy of t with every position moved at places right.
func shiftTree(t *PlanTree, at int) *PlanTree {
	if t == nil {
		return nil
	}
	c := &PlanTree{Lo: t.Lo + at, Hi: t.Hi + at, Start: t.Start, Left: shiftTree(t.Left, at), Right: shiftTree(t.Right, at)}
	if t.Start >= 0 {
		c.Start += at
	}
	return c
}

// refExpansions is RPQDag.Expansions as it was: every path cloned on its
// own, deduplicated in a map on its labels' varint bytes (prefix-free per
// label, so injective at any length and label range), and no count taken
// before the walk.
func refExpansions(d *RPQDag, limit int) (exps []paths.Path, ok bool) {
	seen := make(map[string]struct{})
	var key []byte
	prefix := make(paths.Path, 0, d.MaxLen())
	var elem func(i int) bool
	elem = func(i int) bool {
		if i == len(d.Elems) {
			key = key[:0]
			for _, l := range prefix {
				key = binary.AppendUvarint(key, uint64(l))
			}
			if _, dup := seen[string(key)]; dup {
				return true
			}
			if len(exps) >= limit {
				return false
			}
			seen[string(key)] = struct{}{}
			exps = append(exps, prefix.Clone())
			return true
		}
		e := d.Elems[i]
		var rep func(r int) bool
		rep = func(r int) bool {
			if r == 0 {
				return elem(i + 1)
			}
			for _, l := range e.Labels {
				prefix = append(prefix, l)
				if !rep(r - 1) {
					return false
				}
				prefix = prefix[:len(prefix)-1]
			}
			return true
		}
		for r := e.MinRep; r <= e.MaxRep; r++ {
			if !rep(r) {
				return false
			}
		}
		return true
	}
	if !elem(0) {
		return nil, false
	}
	return exps, true
}

// pathHash mixes a path and a seed into 64 well-spread bits: the pure
// function random estimators and random cache states are drawn from.
func pathHash(p paths.Path, seed int64) uint64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, l := range p {
		h ^= uint64(l) + 1
		h *= 0xff51afd7ed558ccd
		h ^= h >> 29
	}
	return h
}

// randomPlanner is a planner over a random, pure estimator — coarse
// (small integers, so costs tie and the tie-breaks decide) on odd seeds,
// fine (53 random mantissa bits over six decades, so a changed summation
// order changes the float) on even ones — and, when cachedShare > 0, a
// random pure Cached reporting about that share of segments.
func randomPlanner(seed int64, cachedShare float64) Planner {
	pl := Planner{Est: EstimatorFunc(func(p paths.Path) float64 {
		h := pathHash(p, seed)
		if seed%2 != 0 {
			return float64(h % 4)
		}
		scale := []float64{1e-2, 1, 1e2, 1e4, 1e6, 1e8}[h%6]
		return scale * float64(h>>11) / (1 << 53)
	})}
	if cachedShare > 0 {
		pl.Cached = func(p paths.Path) bool {
			return float64(pathHash(p, ^seed)>>11)/(1<<53) < cachedShare
		}
	}
	return pl
}

// assertPlansMatchReference pins everything the table-driven planner
// decides about p — the zig-zag cost spread, the chosen tree and its cost
// — to the reference planner, float for float, and the tree's cost to at
// most the cheapest zig-zag plan's.
func assertPlansMatchReference(t *testing.T, pl Planner, p paths.Path) {
	t.Helper()
	k := len(p)
	want := refCosts(pl, p)
	wantTree, wantCost := refChooseTreeWithCost(pl, p)
	got := pl.Plan(PathDag(p), 0)
	if got.Tree.Lo != 0 || got.Tree.Hi != k || len(got.Costs) != len(want) {
		t.Fatalf("path %v: the plan is not a tree over the path with %d costs", p, len(want))
	}
	for s := range want {
		if got.Costs[s] != want[s] {
			t.Fatalf("path %v: Costs[%d] = %v, reference %v", p, s, got.Costs[s], want[s])
		}
	}
	if got.Tree.Describe(k) != wantTree.Describe(k) || got.Cost != wantCost {
		t.Fatalf("path %v: plan %s at %v, reference %s at %v",
			p, got.Tree.Describe(k), got.Cost, wantTree.Describe(k), wantCost)
	}
	if lin := want[refCheapest(want)]; got.Cost > lin {
		t.Fatalf("path %v: plan %s at %v costs more than the cheapest zig-zag plan at %v", p, got.Tree.Describe(k), got.Cost, lin)
	}
}

// assertDagPlanMatchesReference pins a planned DAG to the reference
// planner: its tree node for node — the block decomposition, every run's
// tree, how each block is folded in — the per-start costs and the two
// estimates, float for float.
func assertDagPlanMatchesReference(t *testing.T, ctx string, got, want *DagPlan) {
	t.Helper()
	if got.Cost != want.Cost || got.ResultEst != want.ResultEst || !reflect.DeepEqual(got.Costs, want.Costs) {
		t.Fatalf("%s: plan cost %v result %v costs %v, reference %v, %v, %v",
			ctx, got.Cost, got.ResultEst, got.Costs, want.Cost, want.ResultEst, want.Costs)
	}
	if got.Describe() != want.Describe() || !reflect.DeepEqual(got.Tree, want.Tree) {
		t.Fatalf("%s: plan %s, reference %s", ctx, got.Describe(), want.Describe())
	}
}

func randomPath(rng *rand.Rand, k, labels int) paths.Path {
	p := make(paths.Path, k)
	for i := range p {
		p[i] = rng.Intn(labels)
	}
	return p
}

// TestPlannerMatchesReference is the bit-identity property test of the
// table-driven planner: over random estimators and random cache states,
// for short paths and for one longer than any histogram covers.
func TestPlannerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 17}
	for seed := int64(0); seed < 40; seed++ {
		for _, k := range lengths {
			p := randomPath(rng, k, 1+rng.Intn(4))
			for _, share := range []float64{0, 0.3, 0.9} {
				assertPlansMatchReference(t, randomPlanner(seed, share), p)
			}
		}
	}
}

// TestPlanDagMatchesReference is the same for planned DAGs.
func TestPlanDagMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for seed := int64(0); seed < 200; seed++ {
		d := randomDag(rng, 4)
		n := rng.Intn(50)
		for _, share := range []float64{0, 0.5} {
			pl := randomPlanner(seed, share)
			assertDagPlanMatchesReference(t, d.Describe(), pl.Plan(d, n), refPlanDag(pl, d, n))
		}
	}
	// Chains of three to seven blocks, longer than any executed DAG, on
	// 53-bit estimates: a plan's Cost adds its blocks' costs before its
	// chain's steps, and a reordered sum differs in the last bits.
	for seed := int64(0); seed < 1000; seed++ {
		d := &RPQDag{}
		for i, k := 0, 3+rng.Intn(5); i < k; i++ {
			e := RPQElem{Labels: []int{rng.Intn(4)}, MinRep: 1, MaxRep: 1}
			if rng.Intn(2) == 0 {
				e.MinRep = rng.Intn(2)
				e.MaxRep = max(1, e.MinRep+rng.Intn(3-e.MinRep))
			}
			d.Elems = append(d.Elems, e)
		}
		pl := randomPlanner(2*seed, 0.3)
		assertDagPlanMatchesReference(t, d.Describe(), pl.Plan(d, 100), refPlanDag(pl, d, 100))
	}
}

// TestSegmentTableAsksEachSegmentOnce pins the planner's estimator
// budget: planning a concrete path makes one call per proper segment —
// never the whole path, which no plan materializes as an intermediate and
// which callers plan one label beyond their estimator's reach —
// estimating it then makes one call, on the whole path, and a cache view
// changes which plan is chosen, never what is asked.
func TestSegmentTableAsksEachSegmentOnce(t *testing.T) {
	for k := 1; k <= 8; k++ {
		// Distinct labels, so every segment is a distinct label sequence.
		p := make(paths.Path, k)
		for i := range p {
			p[i] = i
		}
		calls, asked, planning := 0, map[string]int{}, true
		pl := randomPlanner(int64(k), 0)
		est := pl.Est
		pl.Est = EstimatorFunc(func(q paths.Path) float64 {
			if planning && len(q) == k {
				panic("the whole path was estimated")
			}
			calls++
			asked[q.Key()]++
			return est.Estimate(q)
		})
		d := PathDag(p)
		dp := pl.Plan(d, 0)
		if want := k*(k+1)/2 - 1; calls != want || len(asked) != want {
			t.Fatalf("k=%d: planning made %d estimator calls over %d segments, want %d",
				k, calls, len(asked), want)
		}
		calls, asked, planning = 0, map[string]int{}, false
		if got, want := pl.Estimate(dp), est.Estimate(p); calls != 1 || asked[p.Key()] != 1 || got != want {
			t.Fatalf("k=%d: Estimate made %d calls, %d on the whole path, answering %v for %v",
				k, calls, asked[p.Key()], got, want)
		}
		for _, share := range []float64{0, 0.5} {
			scratch := randomPlanner(int64(k), share)
			calls, asked, planning = 0, map[string]int{}, true
			got := Planner{Est: pl.Est, Cached: scratch.Cached}.Plan(d, 0)
			if want := k*(k+1)/2 - 1; calls != want || len(asked) != want {
				t.Fatalf("k=%d cached share %v: planning made %d estimator calls over %d segments, want %d",
					k, share, calls, len(asked), want)
			}
			want := scratch.Plan(PathDag(p), 0)
			if got.Describe() != want.Describe() || got.Cost != want.Cost {
				t.Fatalf("k=%d cached share %v: planned %s at %v, reference planner %s at %v",
					k, share, got.Describe(), got.Cost, want.Describe(), want.Cost)
			}
		}
	}
}

// TestEstimateSumsExpansions pins Estimate on a query that is not one
// run: it asks for Expansions' paths, each once and in their order, and
// answers their in-order sum to the bit — up to exactly MaxExpansions
// paths; one past, it asks nothing and answers the plan's ResultEst.
func TestEstimateSumsExpansions(t *testing.T) {
	alt := func(from, n int) RPQElem {
		e := RPQElem{Labels: make([]int, n), MinRep: 1, MaxRep: 1}
		for i := range e.Labels {
			e.Labels[i] = from + i
		}
		return e
	}
	a := RPQElem{Labels: []int{0}, MinRep: 1, MaxRep: 1}
	cases := []struct {
		name   string
		d      *RPQDag
		summed bool
	}{
		{"a{1,2}/a{1,2}", &RPQDag{Elems: []RPQElem{{Labels: []int{0}, MinRep: 1, MaxRep: 2}, {Labels: []int{0}, MinRep: 1, MaxRep: 2}}}, true},
		{"a/(b|c)?/d{2}", &RPQDag{Elems: []RPQElem{a, {Labels: []int{1, 2}, MinRep: 0, MaxRep: 1}, {Labels: []int{3}, MinRep: 2, MaxRep: 2}}}, true},
		{"(0..99)/(0..99): exactly MaxExpansions", &RPQDag{Elems: []RPQElem{alt(0, 100), alt(0, 100)}}, true},
		{"(0..72)/(0..136): one past", &RPQDag{Elems: []RPQElem{alt(0, 73), alt(0, 137)}}, false},
	}
	for _, c := range cases {
		var asked []paths.Path
		pl := randomPlanner(6, 0) // 53-bit estimates: a reordered sum differs
		est := pl.Est
		dp := pl.Plan(c.d, 1000)
		pl.Est = EstimatorFunc(func(q paths.Path) float64 {
			asked = append(asked, q.Clone())
			return est.Estimate(q)
		})
		got := pl.Estimate(dp)
		exps, ok := c.d.Expansions(MaxExpansions)
		if ok != c.summed {
			t.Fatalf("%s: %d expansions within MaxExpansions = %v, want %v", c.name, len(exps), ok, c.summed)
		}
		if !c.summed {
			if len(asked) != 0 || math.Float64bits(got) != math.Float64bits(dp.ResultEst) {
				t.Fatalf("%s: made %d calls answering %v, want none and ResultEst %v", c.name, len(asked), got, dp.ResultEst)
			}
			continue
		}
		var want float64
		for i, q := range exps {
			if i >= len(asked) || !asked[i].Equal(q) {
				t.Fatalf("%s: call %d of %d was not expansion %v", c.name, i, len(asked), q)
			}
			want += est.Estimate(q)
		}
		if len(asked) != len(exps) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %d calls answering %v, want %d answering %v", c.name, len(asked), got, len(exps), want)
		}
	}
}

// TestExpansionsMatchReference pins the enumeration's order, its
// deduplication and its limit to the map-deduplicated enumeration it
// replaced.
func TestExpansionsMatchReference(t *testing.T) {
	a := RPQElem{Labels: []int{0}, MinRep: 1, MaxRep: 2}
	wild := RPQElem{Labels: []int{0, 1, 2, 3}, MinRep: 0, MaxRep: 2}
	cases := []struct {
		name  string
		d     *RPQDag
		limit int
	}{
		{"a{1,2}/a{1,2}", &RPQDag{Elems: []RPQElem{a, a}}, 100},
		{"wildcard", &RPQDag{Elems: []RPQElem{{Labels: []int{2}, MinRep: 1, MaxRep: 1}, wild, a}}, 1000},
		{"over the limit", &RPQDag{Elems: []RPQElem{wild, wild, a}}, 50},
		{"exactly the limit", &RPQDag{Elems: []RPQElem{a, a}}, 3},
		{"one under", &RPQDag{Elems: []RPQElem{a, a}}, 2},
		// Label ids and lengths no fixed-width integer code would hold.
		{"wide labels", &RPQDag{Elems: []RPQElem{{Labels: []int{70000}, MinRep: 30, MaxRep: 31}, {Labels: []int{1 << 40}, MinRep: 0, MaxRep: 1}}}, 100},
	}
	rng := rand.New(rand.NewSource(89))
	for i := 0; i < 100; i++ {
		cases = append(cases, struct {
			name  string
			d     *RPQDag
			limit int
		}{"random", randomDag(rng, 4), 1 + rng.Intn(40)})
	}
	for _, c := range cases {
		want, wantOK := refExpansions(c.d, c.limit)
		got, ok := c.d.Expansions(c.limit)
		if ok != wantOK || len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("%s (%s): %d paths ok=%v, reference %d ok=%v",
				c.name, c.d.Describe(), len(got), ok, len(want), wantOK)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s (%s): path %d = %v, reference %v", c.name, c.d.Describe(), i, got[i], want[i])
			}
		}
	}
	if got, ok := (&RPQDag{Elems: []RPQElem{wild, wild, a}}).Expansions(50); got != nil || ok {
		t.Fatalf("over the limit: got %d paths ok=%v, want nil, false", len(got), ok)
	}
}
