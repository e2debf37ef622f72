package exec

import (
	"math/rand"
	"testing"

	"repro/internal/paths"
)

// The planner the segment table replaced, kept as the reference the
// table-driven one is pinned to: it asks the estimator for every term of
// every sum (241 estimates for k = 6 where the table asks 20). Costs are
// compared with ==, not within ε — the table must add the same terms in
// the same order.

// refCosts is Planner.Costs as it was: one PlanCost per start.
func refCosts(pl Planner, p paths.Path) []float64 {
	out := make([]float64, len(p))
	for s := range p {
		out[s] = pl.PlanCost(p, s)
	}
	return out
}

// refTreeDP is Planner.treeDP as it was.
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
			leaf := CheapestPlan(costs)
			best := treeCell{cost: costs[leaf.Start], split: -1, start: i + leaf.Start}
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

// refChooseTreeWithCost is Planner.ChooseTreeWithCost as it was.
func refChooseTreeWithCost(pl Planner, p paths.Path) (*PlanTree, float64) {
	k := len(p)
	if k > MaxTreeLength {
		start := CheapestPlan(refCosts(pl, p)).Start
		return &PlanTree{Lo: 0, Hi: k, Start: start}, pl.PlanCost(p, start)
	}
	dp := refTreeDP(pl, p)
	return refBuildTree(dp, 0, k), dp[0][k].cost
}

// refElemEst is Planner.elemEst as it was.
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
		if r < e.MaxRep {
			buildCost += pow
		}
	}
	return est, buildCost
}

// refPlanDag is Planner.PlanDag as it was.
func refPlanDag(pl Planner, d *RPQDag, n int, bushy bool) *DagPlan {
	dp := &DagPlan{}
	for i := 0; i < len(d.Elems); {
		if d.Elems[i].simple() {
			j := i
			run := paths.Path{}
			for j < len(d.Elems) && d.Elems[j].simple() {
				run = append(run, d.Elems[j].Labels[0])
				j++
			}
			var tree *PlanTree
			var cost float64
			if bushy {
				tree, cost = refChooseTreeWithCost(pl, run)
			} else {
				plan := CheapestPlan(refCosts(pl, run))
				tree = &PlanTree{Lo: 0, Hi: len(run), Start: plan.Start}
				cost = pl.PlanCost(run, plan.Start)
			}
			dp.Blocks = append(dp.Blocks, DagBlockPlan{
				Lo: i, Hi: j, Run: run, Tree: tree, Est: pl.Est.Estimate(run),
			})
			dp.Cost += cost
			i = j
			continue
		}
		e := d.Elems[i]
		est, buildCost := refElemEst(pl, e, n)
		dp.Blocks = append(dp.Blocks, DagBlockPlan{Lo: i, Hi: i + 1, Elem: e, Est: est})
		dp.Cost += buildCost
		i++
	}
	size, eps := 0.0, true
	for i, b := range dp.Blocks {
		skip := b.Run == nil && b.Elem.skippable()
		if i == 0 {
			size, eps = b.Est, skip
			continue
		}
		dp.Cost += size + b.Est
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
	return dp
}

// refExpansions is RPQDag.Expansions as it was: deduplicated on the
// formatted Path.Key.
func refExpansions(d *RPQDag, limit int) (exps []paths.Path, ok bool) {
	seen := make(map[string]bool)
	prefix := make(paths.Path, 0, d.MaxLen())
	var elem func(i int) bool
	elem = func(i int) bool {
		if i == len(d.Elems) {
			k := prefix.Key()
			if seen[k] {
				return true
			}
			if len(exps) >= limit {
				return false
			}
			seen[k] = true
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
// decides about p — the zig-zag cost spread, the chosen tree and its
// cost, and the same again when replanned from the retained table — to
// the reference planner, float for float.
func assertPlansMatchReference(t *testing.T, pl Planner, p paths.Path) {
	t.Helper()
	k := len(p)
	want := refCosts(pl, p)
	wantTree, wantCost := refChooseTreeWithCost(pl, p)
	segs := pl.Segments(p)
	for name, got := range map[string][]float64{"Planner.Costs": pl.Costs(p), "SegTable.Costs": segs.Costs()} {
		if len(got) != len(want) {
			t.Fatalf("path %v: %s has %d entries, want %d", p, name, len(got), len(want))
		}
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("path %v: %s[%d] = %v, reference %v", p, name, s, got[s], want[s])
			}
		}
	}
	tree, cost := pl.ChooseTreeWithCost(p)
	if tree.Describe(k) != wantTree.Describe(k) || cost != wantCost {
		t.Fatalf("path %v: ChooseTreeWithCost = %s at %v, reference %s at %v",
			p, tree.Describe(k), cost, wantTree.Describe(k), wantCost)
	}
	tree, cost = segs.ChooseTreeWithCost(pl.Cached)
	if tree.Describe(k) != wantTree.Describe(k) || cost != wantCost {
		t.Fatalf("path %v: ChooseTreeWithCost from a table = %s at %v, reference %s at %v",
			p, tree.Describe(k), cost, wantTree.Describe(k), wantCost)
	}
}

// assertDagPlanMatchesReference pins a planned DAG to the reference
// planner: block decomposition, every run block's tree, and the three
// estimates, float for float.
func assertDagPlanMatchesReference(t *testing.T, ctx string, got, want *DagPlan) {
	t.Helper()
	if got.Cost != want.Cost || got.ResultEst != want.ResultEst || len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: plan cost %v result %v over %d blocks, reference %v, %v over %d",
			ctx, got.Cost, got.ResultEst, len(got.Blocks), want.Cost, want.ResultEst, len(want.Blocks))
	}
	if got.Describe() != want.Describe() {
		t.Fatalf("%s: plan %s, reference %s", ctx, got.Describe(), want.Describe())
	}
	for i := range want.Blocks {
		g, w := got.Blocks[i], want.Blocks[i]
		if g.Est != w.Est || g.Lo != w.Lo || g.Hi != w.Hi {
			t.Fatalf("%s: block %d [%d,%d) est %v, reference [%d,%d) est %v",
				ctx, i, g.Lo, g.Hi, g.Est, w.Lo, w.Hi, w.Est)
		}
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
// for every length the DP handles and the first it does not.
func TestPlannerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, MaxTreeLength + 1}
	for seed := int64(0); seed < 40; seed++ {
		for _, k := range lengths {
			p := randomPath(rng, k, 1+rng.Intn(4))
			for _, share := range []float64{0, 0.3, 0.9} {
				assertPlansMatchReference(t, randomPlanner(seed, share), p)
			}
		}
	}
}

// TestPlanDagMatchesReference is the same for planned DAGs, zig-zag and
// bushy, planned and replanned.
func TestPlanDagMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for seed := int64(0); seed < 200; seed++ {
		d := randomDag(rng, 4)
		n := rng.Intn(50)
		for _, bushy := range []bool{false, true} {
			for _, share := range []float64{0, 0.5} {
				pl := randomPlanner(seed, share)
				want := refPlanDag(pl, d, n, bushy)
				got := pl.PlanDag(d, n, bushy)
				assertDagPlanMatchesReference(t, d.Describe(), got, want)
				// A plan made against another cache state, replanned
				// against this one, is the plan made against this one.
				other := randomPlanner(seed, 1).PlanDag(d, n, bushy)
				assertDagPlanMatchesReference(t, d.Describe()+" replanned", pl.ReplanDag(other), want)
			}
		}
	}
}

// countingPlanner wraps pl's estimator with a call counter.
func countingPlanner(pl Planner, calls *int) Planner {
	est := pl.Est
	pl.Est = EstimatorFunc(func(p paths.Path) float64 {
		*calls++
		return est.Estimate(p)
	})
	return pl
}

// TestSegmentTableAsksEachSegmentOnce pins the planner's estimator
// budget: one table serves the zig-zag spread and the bushy DP with one
// call per proper segment — never the whole path, which no plan
// materializes as an intermediate — and planning from a filled table asks
// nothing, with and without a cache view, while choosing what planning
// from scratch chooses.
func TestSegmentTableAsksEachSegmentOnce(t *testing.T) {
	for k := 1; k <= 8; k++ {
		// Distinct labels, so every segment is a distinct label sequence.
		p := make(paths.Path, k)
		for i := range p {
			p[i] = i
		}
		calls, asked := 0, map[string]int{}
		pl := randomPlanner(int64(k), 0)
		est := pl.Est
		pl.Est = EstimatorFunc(func(q paths.Path) float64 {
			calls++
			asked[q.Key()]++
			return est.Estimate(q)
		})
		segs := pl.Segments(p)
		if want := k*(k+1)/2 - 1; calls != want || len(asked) != want {
			t.Fatalf("k=%d: filling the table made %d estimator calls over %d segments, want %d",
				k, calls, len(asked), want)
		}
		if asked[p.Key()] != 0 {
			t.Fatalf("k=%d: the whole path was estimated", k)
		}
		for _, share := range []float64{0, 0.5} {
			scratch := randomPlanner(int64(k), share)
			calls = 0
			segs.Costs()
			tree, cost := segs.ChooseTreeWithCost(scratch.Cached)
			if calls != 0 {
				t.Fatalf("k=%d: planning from a filled table made %d estimator calls", k, calls)
			}
			wantTree, wantCost := scratch.ChooseTreeWithCost(p)
			if tree.Describe(k) != wantTree.Describe(k) || cost != wantCost {
				t.Fatalf("k=%d cached share %v: from the table %s at %v, from scratch %s at %v",
					k, share, tree.Describe(k), cost, wantTree.Describe(k), wantCost)
			}
		}
	}
}

// TestReplanDagAsksNothing pins ReplanDag's budget: zero estimator calls,
// and the input plan untouched.
func TestReplanDagAsksNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for seed := int64(0); seed < 50; seed++ {
		d := randomDag(rng, 4)
		var calls int
		cold := countingPlanner(randomPlanner(seed, 0), &calls)
		dp := cold.PlanDag(d, 30, true)
		before, coldCost := dp.Describe(), dp.Cost
		calls = 0
		warm := countingPlanner(randomPlanner(seed, 0.7), &calls)
		replanned := warm.ReplanDag(dp)
		if calls != 0 {
			t.Fatalf("%s: ReplanDag made %d estimator calls", d.Describe(), calls)
		}
		if dp.Describe() != before || dp.Cost != coldCost {
			t.Fatalf("%s: ReplanDag changed its input", d.Describe())
		}
		assertDagPlanMatchesReference(t, d.Describe(), replanned, refPlanDag(warm, d, 30, true))
	}
}

// TestExpansionsMatchReference pins the enumeration's order, its
// deduplication and its limit to the Key-deduplicated enumeration it
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
