package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// allTrees enumerates every plan tree over segment [lo, hi): all zig-zag
// leaves and all bushy splits, recursively — the full plan space the
// equivalence property quantifies over.
func allTrees(lo, hi int) []*PlanTree {
	var out []*PlanTree
	for s := lo; s < hi; s++ {
		out = append(out, &PlanTree{Lo: lo, Hi: hi, Start: s})
	}
	for m := lo + 1; m < hi; m++ {
		for _, l := range allTrees(lo, m) {
			for _, r := range allTrees(m, hi) {
				out = append(out, &PlanTree{Lo: lo, Hi: hi, Start: -1, Left: l, Right: r})
			}
		}
	}
	return out
}

// randomTree draws one plan tree over [lo, hi) — shared by the fuzz
// harness, which cannot afford the full enumeration per input.
func randomTree(rng *rand.Rand, lo, hi int) *PlanTree {
	if hi-lo == 1 || rng.Intn(2) == 0 {
		return &PlanTree{Lo: lo, Hi: hi, Start: lo + rng.Intn(hi-lo)}
	}
	m := lo + 1 + rng.Intn(hi-lo-1)
	return &PlanTree{Lo: lo, Hi: hi, Start: -1,
		Left: randomTree(rng, lo, m), Right: randomTree(rng, m, hi)}
}

// TestExecuteTreePropertyAllShapes is the bushy executor's bit-identity
// property test: on random graphs, every plan tree of every shape — all
// leaves, all splits, all nested splits — must produce exactly the pairs
// of the retired dense executor, at several density thresholds.
func TestExecuteTreePropertyAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		vertices := 2 + rng.Intn(100)
		labels := 1 + rng.Intn(4)
		edges := 1 + rng.Intn(6*vertices)
		g := randomGraph(int64(200+trial), vertices, labels, edges)
		k := 2 + rng.Intn(3) // 2..4: 3 to 31 tree shapes
		p := make(paths.Path, k)
		for i := range p {
			p[i] = rng.Intn(labels)
		}
		dref, dst := oracle.ExecuteDense(g, p, oracle.Forward)
		density := []float64{0, 1e-9, 1.0}[trial%3]
		for ti, tree := range allTrees(0, k) {
			rel, st := runTree(t, g, p, tree, Options{DensityThreshold: density, Workers: 1})
			ctx := fmt.Sprintf("trial %d path %v tree %d %s", trial, p, ti, tree.Describe(k))
			if !oracle.EqualRelation(rel, dref) {
				t.Fatalf("%s: pairs differ from dense reference", ctx)
			}
			if st.Result != dst.Result {
				t.Fatalf("%s: result %d != dense %d", ctx, st.Result, dst.Result)
			}
		}
	}
}

// TestExecuteTreeParallelMatchesSequential pins the parallel bushy
// executor bit-identical to its sequential mode at workers 1–8: same
// relation, same intermediates, same work, same cache traffic — without a
// cache, and over a fresh cache per run, where every odd trial's path is
// two equal halves, so a right child can adopt what its left sibling just
// published: it must do so at every worker count, because a join node
// builds its children in turn and only a step's shards run in parallel.
// Run under -race (as CI does) it also proves the sharded steps are
// data-race-free.
func TestExecuteTreeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		vertices := 60 + rng.Intn(200)
		labels := 1 + rng.Intn(3)
		edges := vertices + rng.Intn(8*vertices)
		g := randomGraph(int64(300+trial), vertices, labels, edges)
		k := 2 + rng.Intn(3)
		if trial%2 == 1 {
			k = 4
		}
		p := make(paths.Path, k)
		for i := range p {
			p[i] = rng.Intn(labels)
		}
		if trial%2 == 1 {
			copy(p[2:], p[:2])
		}
		for ti, tree := range allTrees(0, k) {
			if tree.IsLeaf() {
				continue // covered by the zig-zag parallel suite
			}
			for _, cached := range []bool{false, true} {
				// opt returns the options of one run: a cold cache of its
				// own when cached.
				opt := func(workers int) Options {
					o := Options{Workers: workers}
					if cached {
						o.Cache = relcache.New(relcache.Options{})
					}
					return o
				}
				seqRel, seqSt := runTree(t, g, p, tree, opt(1))
				for workers := 2; workers <= 8; workers *= 2 {
					ctx := fmt.Sprintf("trial %d path %v tree %d %s cached %t workers %d",
						trial, p, ti, tree.Describe(k), cached, workers)
					rel, st := runTree(t, g, p, tree, opt(workers))
					if !rel.Equal(seqRel) {
						t.Fatalf("%s: parallel relation differs from sequential", ctx)
					}
					assertStatsEqual(t, ctx, st, seqSt)
				}
			}
		}
	}
}

// TestPlanCostMatchesExecutedWork pins the planner's cost model to the
// executor's accounting: with an exact estimator, a bushy plan's Cost must
// equal the Stats.Work of executing it.
func TestPlanCostMatchesExecutedWork(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		vertices := 10 + rng.Intn(120)
		labels := 1 + rng.Intn(4)
		edges := 1 + rng.Intn(7*vertices)
		g := randomGraph(int64(400+trial), vertices, labels, edges)
		pl := Planner{Est: EstimatorFunc(func(p paths.Path) float64 {
			return float64(paths.Selectivity(g, p))
		})}
		for k := 1; k <= 4; k++ {
			p := make(paths.Path, k)
			for i := range p {
				p[i] = rng.Intn(labels)
			}
			dp := pl.Plan(PathDag(p), 0)
			_, st, err := Run(g, dp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if float64(st.Work) != dp.Cost {
				t.Fatalf("trial %d path %v plan %s: Cost %v != executed work %d",
					trial, p, dp.Describe(), dp.Cost, st.Work)
			}
			// The tree plan can never be estimated worse than the best
			// zig-zag plan — the leaf space is contained in the tree space.
			if lin := slices.Min(dp.Costs); dp.Cost > lin {
				t.Fatalf("trial %d path %v: tree cost %v exceeds linear cost %v", trial, p, dp.Cost, lin)
			}
		}
	}
}

// TestBushyPlanFallsBack pins the linear fallback: with a uniform
// estimator a bushy join (which pays for both materialized inputs) can
// never beat linear growth (whose right-hand operand is free), so the
// chosen tree must be a single leaf — and by the tie-break rule, the
// forward plan.
func TestBushyPlanFallsBack(t *testing.T) {
	pl := Planner{Est: EstimatorFunc(func(p paths.Path) float64 { return 7 })}
	for k := 1; k <= 6; k++ {
		p := make(paths.Path, k)
		dp := pl.Plan(PathDag(p), 0)
		if tree := dp.Tree; !tree.IsLeaf() || tree.Start != 0 {
			t.Fatalf("k=%d: expected forward leaf, got %s", k, tree.Describe(k))
		}
		if want := dp.Costs[0]; dp.Cost != want {
			t.Fatalf("k=%d: Cost %v != forward cost %v", k, dp.Cost, want)
		}
	}
}

// TestBushyPlanPrefersBushy hands the planner a cost landscape where
// every length-3 segment is catastrophically large but both halves of the
// query are tiny: the only cheap plan joins the two halves, which no
// zig-zag plan can express.
func TestBushyPlanPrefersBushy(t *testing.T) {
	est := EstimatorFunc(func(p paths.Path) float64 {
		switch len(p) {
		case 1:
			return 10
		case 2:
			return 1
		default:
			return 100
		}
	})
	pl := Planner{Est: est}
	p := paths.Path{0, 1, 2, 3}
	dp := pl.Plan(PathDag(p), 0)
	tree := dp.Tree
	if tree.IsLeaf() || tree.Left.Hi != 2 || !tree.Left.IsLeaf() || !tree.Right.IsLeaf() {
		t.Fatalf("expected ([0,2) ⋈ [2,4)) split, got %s", tree.Describe(len(p)))
	}
	// dp[0][2] = dp[2][4] = 10 (one single-label intermediate each), plus
	// both join inputs at 1 each: 22. Best zig-zag: 10 + 1 + 100 = 111.
	if dp.Cost != 22 {
		t.Fatalf("bushy Cost = %v, want 22", dp.Cost)
	}
	if got := slices.Min(dp.Costs); got != 111 {
		t.Fatalf("best linear cost = %v, want 111", got)
	}
}

// TestRunValidation pins the malformed-plan panics, each by its own
// message: a tree that is not a plan for its elements, and elements that
// are not a query.
func TestRunValidation(t *testing.T) {
	g := randomGraph(5, 20, 2, 40)
	path := PathDag(paths.Path{0, 1, 0}).Elems
	alt := RPQElem{Labels: []int{0, 1}, MinRep: 1, MaxRep: 1}
	rep := RPQElem{Labels: []int{1}, MinRep: 1, MaxRep: 2}
	leaf := func(lo, hi int) *PlanTree { return &PlanTree{Lo: lo, Hi: hi, Start: lo} }
	elem := func(lo int) *PlanTree { return &PlanTree{Lo: lo, Hi: lo + 1, Start: -1} }
	join := func(l, r *PlanTree) *PlanTree { return &PlanTree{Lo: l.Lo, Hi: r.Hi, Start: -1, Left: l, Right: r} }
	step := func(l *PlanTree, hi int) *PlanTree { return &PlanTree{Lo: l.Lo, Hi: hi, Start: -1, Left: l} }
	one := func(e RPQElem) []RPQElem { return []RPQElem{e} }
	for _, c := range []struct {
		name  string
		elems []RPQElem
		tree  *PlanTree
		want  string
	}{
		{"no elements", nil, leaf(0, 1), "empty plan"},
		{"no tree", path, nil, "nil plan tree node"},
		{"tree not spanning the query", path, leaf(0, 2), "spans [0,2), expected [0,3)"},
		{"start out of range", path, &PlanTree{Lo: 0, Hi: 3, Start: 3}, "leaf start 3 out of segment"},
		{"right child without a left", path, &PlanTree{Lo: 0, Hi: 3, Start: -1, Right: leaf(1, 3)}, "a right child and no left"},
		{"split out of segment", path, join(leaf(0, 3), leaf(3, 3)), "split 3 out of segment"},
		{"right child not at the left's end", path, join(leaf(0, 1), leaf(2, 3)), "right child starts at 2, not at its left sibling's end 1"},
		{"zig-zag leaf over a complex element", []RPQElem{path[0], alt}, leaf(0, 2), "zig-zag leaf [0,2) over a complex element"},
		{"element leaf over a plain element", path[:1], elem(0), "element leaf over plain element 0"},
		{"element leaf over two elements", []RPQElem{alt, alt}, &PlanTree{Lo: 0, Hi: 2, Start: -1}, "element leaf over 2 elements"},
		{"step node through two elements", path, step(leaf(0, 1), 3), "composes through 2 elements"},
		{"step node through an unrolled element", []RPQElem{path[0], rep}, step(leaf(0, 1), 2), "more than one step from the graph"},
		{"label out of range", PathDag(paths.Path{0, 2}).Elems, leaf(0, 2), "label 2 out of range"},
		{"labels unsorted", one(RPQElem{Labels: []int{1, 0}, MinRep: 1, MaxRep: 1}), elem(0), "not sorted"},
		{"element without labels", one(RPQElem{MinRep: 1, MaxRep: 1}), elem(0), "has no labels"},
		{"MaxRep below one", one(RPQElem{Labels: []int{0}, MinRep: 0, MaxRep: 0}), elem(0), "repetition bounds"},
		{"MaxRep below MinRep", one(RPQElem{Labels: []int{0}, MinRep: 3, MaxRep: 2}), elem(0), "repetition bounds"},
		{"MaxRep beyond the bound", one(RPQElem{Labels: []int{0}, MinRep: 1, MaxRep: MaxRepetition + 1}), elem(0), "repetition bounds"},
		{"all-optional plan", []RPQElem{{Labels: []int{0, 1}, MinRep: 0, MaxRep: 1}, {Labels: []int{0}, MinRep: 0, MaxRep: 2}},
			join(elem(0), elem(1)), "may match the empty path"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.want)
				}
			}()
			Run(g, &DagPlan{Elems: c.elems, Tree: c.tree}, Options{})
		}()
	}
	// The shapes these rows break are plans when whole: every node kind,
	// ε and skip terms included.
	for _, dp := range []*DagPlan{
		{Elems: []RPQElem{path[0], alt, rep}, Tree: join(step(leaf(0, 1), 2), elem(2))},
		{Elems: []RPQElem{{Labels: []int{0}, MinRep: 0, MaxRep: 1}, path[1], path[2]}, Tree: step(step(elem(0), 2), 3)},
		{Elems: []RPQElem{alt, path[1], path[2]}, Tree: join(elem(0), join(leaf(1, 2), leaf(2, 3)))},
	} {
		if _, _, err := Run(g, dp, Options{}); err != nil {
			t.Errorf("%s: %v", dp.Describe(), err)
		}
	}
}

// FuzzExecTreeEquivalence fuzzes the graph shape, path, tree shape,
// density, and worker count, asserting bushy ≡ sequential bushy ≡ dense
// on every input — and, over a random estimator and cache state drawn
// from the same inputs, that the table-driven planner chooses the
// reference planner's trees at the reference planner's costs.
func FuzzExecTreeEquivalence(f *testing.F) {
	f.Add(int64(1), 40, 2, 160, uint16(0x3121), int64(5), float64(0), uint8(4))
	f.Add(int64(2), 90, 3, 500, uint16(0x0042), int64(9), float64(1), uint8(7))
	f.Add(int64(3), 12, 1, 30, uint16(0x2000), int64(2), float64(1e-9), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels, edges int, pathBits uint16, treeSeed int64, density float64, workers uint8) {
		if vertices < 1 || vertices > 200 || labels < 1 || labels > 4 ||
			edges < 0 || edges > 1500 || density < 0 || density > 1 {
			t.Skip()
		}
		g := randomGraph(seed, vertices, labels, edges)
		k := 1 + int(pathBits>>12)%4
		p := make(paths.Path, k)
		for i := range p {
			p[i] = int(pathBits>>(4*i)) % labels
		}
		assertPlansMatchReference(t, randomPlanner(treeSeed, density), p)
		tree := randomTree(rand.New(rand.NewSource(treeSeed)), 0, k)
		w := int(workers%8) + 1
		dref, _ := oracle.ExecuteDense(g, p, oracle.Forward)
		seqRel, seqSt := runTree(t, g, p, tree, Options{DensityThreshold: density, Workers: 1})
		rel, st := runTree(t, g, p, tree, Options{DensityThreshold: density, Workers: w})
		if !oracle.EqualRelation(seqRel, dref) {
			t.Fatalf("path %v tree %s: bushy differs from dense", p, tree.Describe(k))
		}
		if !rel.Equal(seqRel) {
			t.Fatalf("path %v tree %s workers %d: parallel diverged", p, tree.Describe(k), w)
		}
		if st.Result != seqSt.Result || st.Work != seqSt.Work {
			t.Fatalf("path %v tree %s workers %d: stats diverged", p, tree.Describe(k), w)
		}
	})
}
