package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// TestNewPlannerPricesCachedSegmentsFree pins the planner's cache view:
// NewPlanner binds a view of any cache it is given — one that answers what
// the cache holds now, before and after a segment is published — and
// every plan prices a segment cached then at 0 to build, asking the
// estimator nothing a planner with no cache does not ask: over cached
// halves the balanced join costs only its two consumed inputs, over a
// cached whole path the plan is a free leaf, and the per-start zig-zag
// Costs never move.
func TestNewPlannerPricesCachedSegmentsFree(t *testing.T) {
	calls := 0
	est := EstimatorFunc(func(paths.Path) float64 { calls++; return 10 })
	p := paths.Path{0, 1, 2, 3}
	bare, cache := NewPlanner(est, nil), relcache.New(relcache.Options{})
	pl := NewPlanner(est, cache)
	if bare.Cached != nil || pl.Cached == nil || pl.Cached(p) {
		t.Fatal("a planner sees a cache it was not given, or a segment its cache does not hold")
	}
	plan := func(pl Planner) (*DagPlan, int) {
		calls = 0
		dp := pl.Plan(PathDag(p), 0)
		return dp, calls
	}
	want, asked := plan(bare)
	if !want.Tree.IsLeaf() || want.Cost != 30 || asked != 9 {
		t.Fatalf("with no cache: %s at %v after %d estimates, want a leaf at 30 after 9", want.Describe(), want.Cost, asked)
	}
	cache.PutKey(relcache.AppendPath(nil, p[:2]), bitset.NewHybrid(4, 0))
	cache.PutKey(relcache.AppendPath(nil, p[2:]), bitset.NewHybrid(4, 0))
	if !pl.Cached(p[:2]) || !pl.Cached(p[2:]) || pl.Cached(p) {
		t.Fatal("a planner does not see a segment published after it was built")
	}
	for _, c := range []struct {
		what  string
		key   paths.Path // published before planning; nil for none
		cost  float64
		split int // the root's split; 0 for a leaf
	}{
		{"cached halves", nil, 20, 2},
		{"a cached whole path", p, 0, 0},
	} {
		if c.key != nil {
			cache.PutKey(relcache.AppendPath(nil, c.key), bitset.NewHybrid(4, 0))
		}
		got, n := plan(pl)
		split := 0
		if !got.Tree.IsLeaf() {
			split = got.Tree.Left.Hi
		}
		if got.Cost != c.cost || split != c.split || n != asked || !reflect.DeepEqual(got.Costs, want.Costs) {
			t.Fatalf("over %s: %s at %v (costs %v) after %d estimates, want split %d at %v (costs %v) after %d",
				c.what, got.Describe(), got.Cost, got.Costs, n, c.split, c.cost, want.Costs, asked)
		}
	}
}

// TestExecutePlanCacheEquivalence pins the cached executor bit-identical
// to the uncached one: a cold pass (empty cache) must match the uncached
// run in relation, result, and stats, and leave every segment it built
// resident and forward; a warm pass (same cache again) must produce the
// identical relation via hits.
func TestExecutePlanCacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		vertices := 2 + rng.Intn(100)
		labels := 1 + rng.Intn(4)
		edges := 1 + rng.Intn(6*vertices)
		g := randomGraph(int64(trial), vertices, labels, edges)
		for _, density := range []float64{0, 1e-9, 1.0} {
			k := 1 + rng.Intn(4)
			p := make(paths.Path, k)
			for i := range p {
				p[i] = rng.Intn(labels)
			}
			for s := 0; s < k; s++ {
				want, wantSt := runPlan(t, g, p, s, Options{DensityThreshold: density})
				cache := relcache.New(relcache.Options{})
				opt := Options{DensityThreshold: density, Cache: cache}

				cold, coldSt := runPlan(t, g, p, s, opt)
				if !cold.Equal(want) || coldSt.Result != wantSt.Result {
					t.Fatalf("trial %d path %v start %d: cold cached run differs", trial, p, s)
				}
				if coldSt.Work != wantSt.Work || len(coldSt.Intermediates) != len(wantSt.Intermediates) {
					t.Fatalf("trial %d path %v start %d: cold stats differ: work %d vs %d",
						trial, p, s, coldSt.Work, wantSt.Work)
				}
				if coldSt.CacheHits != 0 {
					t.Fatalf("trial %d path %v start %d: cold run hit %d times", trial, p, s, coldSt.CacheHits)
				}
				// Exactly one miss per composed step, each segment published
				// once and forward, whichever way the leaf grew it: each
				// rightward segment p[s:j], then each leftward one p[i:],
				// the whole path last.
				if k >= 2 && coldSt.CacheMisses != k-1 {
					t.Fatalf("trial %d path %v start %d: cold run counted %d misses, want %d",
						trial, p, s, coldSt.CacheMisses, k-1)
				}
				stored := func(seg paths.Path) {
					t.Helper()
					rel, ok := cache.GetKey(relcache.AppendPath(nil, seg))
					if !ok {
						t.Fatalf("trial %d path %v start %d: segment %v not resident", trial, p, s, seg)
					}
					got := bitset.NewHybrid(vertices, density)
					rel.CopyInto(got)
					if want, _ := runPlan(t, g, seg, 0, Options{DensityThreshold: density}); !got.Equal(want) {
						t.Fatalf("trial %d path %v start %d: segment %v is not stored forward", trial, p, s, seg)
					}
				}
				for j := s + 2; j <= k; j++ {
					stored(p[s:j])
				}
				for i := 0; i < s; i++ {
					stored(p[i:])
				}

				warm, warmSt := runPlan(t, g, p, s, opt)
				if !warm.Equal(want) || warmSt.Result != wantSt.Result {
					t.Fatalf("trial %d path %v start %d: warm cached run differs", trial, p, s)
				}
				if k >= 2 {
					// The whole query was published cold, so the warm run
					// takes the fast path: one hit, nothing materialized.
					if warmSt.CacheHits != 1 || warmSt.Work != 0 || len(warmSt.Intermediates) != 0 {
						t.Fatalf("trial %d path %v start %d: warm fast path not taken: %+v",
							trial, p, s, warmSt)
					}
					// Structural identity, not just set equality: every row
					// representation must match the computed relation's.
					for v := 0; v < vertices; v++ {
						if warm.RowDense(v) != want.RowDense(v) || warm.RowCount(v) != want.RowCount(v) {
							t.Fatalf("trial %d path %v start %d: adopted row %d differs structurally",
								trial, p, s, v)
						}
					}
				}
			}
		}
	}
}

// TestExecutePlanCacheCrossPlan checks canonicalization across plans and
// queries: segments cached by one plan are adopted by other plans and
// other queries sharing the label subsequence, and never corrupt results.
func TestExecutePlanCacheCrossPlan(t *testing.T) {
	g := randomGraph(7, 60, 3, 240)
	cache := relcache.New(relcache.Options{})
	opt := Options{Cache: cache}
	queries := []paths.Path{
		{0, 1, 2},
		{1, 2, 0}, // shares subsequence {1,2} with the first
		{0, 1, 2, 0},
		{2, 2},
		{0, 1, 2}, // repeat: full fast path
	}
	for qi, p := range queries {
		for s := 0; s < len(p); s++ {
			want, wantSt := runPlan(t, g, p, s, Options{})
			got, gotSt := runPlan(t, g, p, s, opt)
			if !got.Equal(want) || gotSt.Result != wantSt.Result {
				t.Fatalf("query %d %v start %d: cached run diverged", qi, p, s)
			}
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("workload with shared segments never hit")
	}
}

// TestExecutePlanCacheCrossDirection pins the direction-independent keys
// at the executor level: a forward plan's published segments must serve a
// backward plan of the same query as hits — every segment is forward,
// whichever way it was grown — with results bit-identical to the uncached
// run, and the whole-query entry count stays one.
func TestExecutePlanCacheCrossDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(int64(trial), 2+rng.Intn(90), 1+rng.Intn(3), 1+rng.Intn(400))
		labels := g.NumLabels()
		k := 2 + rng.Intn(3)
		p := make(paths.Path, k)
		for i := range p {
			p[i] = rng.Intn(labels)
		}
		want, _ := runPlan(t, g, p, 0, Options{})
		cache := relcache.New(relcache.Options{})
		opt := Options{Cache: cache}

		// Forward plan publishes; the backward plan grows the other way and
		// must adopt anyway.
		runPlan(t, g, p, 0, opt)
		rel, st := runPlan(t, g, p, k-1, opt)
		if !rel.Equal(want) {
			t.Fatalf("trial %d path %v: backward run over forward-warmed cache diverged", trial, p)
		}
		if st.CacheHits == 0 {
			t.Fatalf("trial %d path %v: backward plan never adopted forward-published segments", trial, p)
		}
		// The whole-query segment is cached exactly once, not once per
		// direction.
		if !cache.Contains(p) {
			t.Fatalf("trial %d path %v: whole-query entry missing after both plans", trial, p)
		}
	}
}

// TestExecutePlanCacheDensityMismatch: entries cached under one density
// regime must not be adopted by executions under another — they are
// treated as misses and recomputed, keeping results bit-identical.
func TestExecutePlanCacheDensityMismatch(t *testing.T) {
	g := randomGraph(11, 80, 2, 400)
	p := paths.Path{0, 1, 0}
	cache := relcache.New(relcache.Options{})
	runPlan(t, g, p, 0, Options{DensityThreshold: 1.0, Cache: cache})
	want, _ := runPlan(t, g, p, 0, Options{DensityThreshold: 1e-9})
	got, st := runPlan(t, g, p, 0, Options{DensityThreshold: 1e-9, Cache: cache})
	if st.CacheHits != 0 {
		t.Fatalf("adopted %d entries across density regimes", st.CacheHits)
	}
	if !got.Equal(want) {
		t.Fatal("density-mismatched cache corrupted the result")
	}
	for v := 0; v < 80; v++ {
		if got.RowDense(v) != want.RowDense(v) {
			t.Fatalf("row %d representation leaked across regimes", v)
		}
	}
}

// TestExecuteTreeCacheEquivalence pins cached bushy execution: every tree
// shape over length-4 queries, cold and warm, at workers 1 and 4, matches
// the uncached run's relation and result.
func TestExecuteTreeCacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(int64(100+trial), 2+rng.Intn(80), 1+rng.Intn(3), 1+rng.Intn(300))
		labels := g.NumLabels()
		p := make(paths.Path, 4)
		for i := range p {
			p[i] = rng.Intn(labels)
		}
		for _, tree := range enumerateTestTrees(0, len(p)) {
			want, wantSt := runTree(t, g, p, tree, Options{})
			cache := relcache.New(relcache.Options{})
			for _, workers := range []int{1, 4} {
				opt := Options{Workers: workers, Cache: cache}
				rel, st := runTree(t, g, p, tree, opt)
				if !rel.Equal(want) || st.Result != wantSt.Result {
					t.Fatalf("trial %d tree %s workers %d: cached tree run diverged",
						trial, tree.Describe(len(p)), workers)
				}
			}
			// Second pass on the warm cache: join nodes adopt whole
			// segments.
			rel, st := runTree(t, g, p, tree, Options{Cache: cache})
			if !rel.Equal(want) || st.Result != wantSt.Result {
				t.Fatalf("trial %d tree %s: warm tree run diverged", trial, tree.Describe(len(p)))
			}
			if st.CacheHits == 0 {
				t.Fatalf("trial %d tree %s: warm tree run never hit", trial, tree.Describe(len(p)))
			}
		}
	}
}

// enumerateTestTrees mirrors the experiments' tree enumeration for the
// equivalence suite.
func enumerateTestTrees(lo, hi int) []*PlanTree {
	var out []*PlanTree
	for s := lo; s < hi; s++ {
		out = append(out, &PlanTree{Lo: lo, Hi: hi, Start: s})
	}
	for m := lo + 1; m < hi; m++ {
		for _, l := range enumerateTestTrees(lo, m) {
			for _, r := range enumerateTestTrees(m, hi) {
				out = append(out, &PlanTree{Lo: lo, Hi: hi, Start: -1, Left: l, Right: r})
			}
		}
	}
	return out
}

// constEstimator estimates every segment at a fixed volume — enough to
// make the cache-aware DP's arithmetic checkable by hand.
func constEstimator(v float64) Estimator {
	return EstimatorFunc(func(paths.Path) float64 { return v })
}

// TestBushyPlanCacheAware: with every segment estimated at 10, a length-4
// query costs 30 under any zig-zag plan and 40 under the best bushy
// split, so linear wins cold. Marking the two halves cached zeroes their
// build cost, making the balanced join (0+0+10+10 = 20) the winner —
// the "bushy never wins" outcome flips exactly when segments are
// reusable.
func TestBushyPlanCacheAware(t *testing.T) {
	d := PathDag(paths.Path{0, 1, 2, 3})
	cold := Planner{Est: constEstimator(10)}.Plan(d, 0)
	if tree := cold.Tree; !tree.IsLeaf() || cold.Cost != 30 {
		t.Fatalf("cold planner chose %s at %v, want linear at 30", tree.Describe(4), cold.Cost)
	}
	warm := Planner{Est: constEstimator(10), Cached: func(seg paths.Path) bool {
		return len(seg) == 2
	}}.Plan(d, 0)
	tree := warm.Tree
	if tree.IsLeaf() || warm.Cost != 20 {
		t.Fatalf("warm planner chose %s at %v, want balanced join at 20", tree.Describe(4), warm.Cost)
	}
	if tree.Left.Hi != 2 {
		t.Fatalf("warm planner split at %d, want 2", tree.Left.Hi)
	}
	// A fully cached query is a free leaf — the fast path beats any join.
	full := Planner{Est: constEstimator(10), Cached: func(paths.Path) bool { return true }}.Plan(d, 0)
	if tree := full.Tree; !tree.IsLeaf() || full.Cost != 0 {
		t.Fatalf("fully cached planner chose %s at %v, want free leaf", tree.Describe(4), full.Cost)
	}
}

// TestExecuteTreeCacheAwarePlansMatch runs the planner's cache-aware
// choice end to end on a real graph: whatever tree the warm DP picks,
// executing it with the warm cache yields the same relation as the cold
// linear plan.
func TestExecuteTreeCacheAwarePlansMatch(t *testing.T) {
	g := randomGraph(13, 90, 3, 500)
	p := paths.Path{0, 1, 2, 0}
	cache := relcache.New(relcache.Options{})
	opt := Options{Cache: cache}
	want, _ := runPlan(t, g, p, 0, Options{})

	// Warm the halves the way a workload would: execute them as queries.
	runPlan(t, g, p[:2], 0, opt)
	runPlan(t, g, p[2:], 0, opt)

	pl := Planner{
		Est:    EstimatorFunc(func(seg paths.Path) float64 { return float64(len(seg) * 100) }),
		Cached: func(seg paths.Path) bool { return cache.Contains(seg) },
	}
	tree := pl.Plan(PathDag(p), 0).Tree
	if tree.IsLeaf() {
		t.Fatalf("warm cache did not flip the plan bushy: %s", tree.Describe(len(p)))
	}
	rel, st := runTree(t, g, p, tree, opt)
	if !rel.Equal(want) {
		t.Fatal("cache-aware bushy plan produced a different relation")
	}
	if st.CacheHits == 0 {
		t.Fatal("cache-aware bushy plan never adopted the warmed halves")
	}
}

// TestWholeQueryHitAllocatesNothingOfItsOwn pins the hot path of a warm
// workload: a pooled execution answered by the whole-query fast path — a
// concrete path's, a lone element's, a fold's over its longest prefix —
// builds no scheduler, keeps its state on the stack and probes the cache
// with a stack-encoded key, so it allocates nothing at all — a path
// published by a plan that grew leftward (from its last label or its
// middle one) as much as one that grew rightward.
func TestWholeQueryHitAllocatesNothingOfItsOwn(t *testing.T) {
	g := randomGraph(7, 400, 2, 6000)
	label := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	alt := RPQElem{Labels: []int{0, 1}, MinRep: 1, MaxRep: 1}
	for name, plan := range map[string]*DagPlan{
		"path":          startPlan(paths.Path{0, 1, 0}, 0),
		"path-leftward": startPlan(paths.Path{0, 1, 0}, 2),
		"path-middle":   startPlan(paths.Path{0, 1, 0}, 1),
		"element":       zeroPlan(g, &RPQDag{Elems: []RPQElem{{Labels: []int{0, 1}, MinRep: 1, MaxRep: 2}}}),
		"fold":          zeroPlan(g, &RPQDag{Elems: []RPQElem{alt, {Labels: []int{1}, MinRep: 0, MaxRep: 2}, label(0), label(1)}}),
	} {
		opt, pool, _ := checkedOptions(g.NumVertices(), 2)
		opt.Cache = relcache.New(relcache.Options{})
		rel, _, err := Run(g, plan, opt) // publish
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(rel)
		run := func() {
			rel, st, err := Run(g, plan, opt)
			if err != nil || st.CacheHits != 1 || st.Sched.Tasks != 0 || len(st.Intermediates) != 0 {
				t.Fatalf("%s: err=%v stats=%+v, want one hit, no step and no scheduler", name, err, st)
			}
			pool.Put(rel)
		}
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Fatalf("%s: whole-query hit allocates %.0f times per execution, want 0", name, allocs)
		}
	}
}

// TestColdRunProbesEachSegmentOnce pins that a cold execution probes each
// segment's key once: every probe misses and every miss is published, so
// the cache's Misses and Puts both equal the run's CacheMisses — for a
// leaf grown from every start, a bushy join and an RPQ fold over an
// alternation and a repetition. A step whose key its node's whole probe or
// the fold's prefix scan has just missed does not probe it again.
func TestColdRunProbesEachSegmentOnce(t *testing.T) {
	g := randomGraph(5, 60, 3, 400)
	const a, b, c = 0, 1, 2
	label := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	plans := map[string]*DagPlan{
		"a/b ⋈ c/a": PathPlan(paths.Path{a, b, c, a}, &PlanTree{Lo: 0, Hi: 4, Start: -1,
			Left: &PlanTree{Lo: 0, Hi: 2, Start: 0}, Right: &PlanTree{Lo: 2, Hi: 4, Start: 2}}),
		"a/(b|c)/a{1,2}/b/c": zeroPlan(g, &RPQDag{Elems: []RPQElem{label(a),
			{Labels: []int{b, c}, MinRep: 1, MaxRep: 1}, {Labels: []int{a}, MinRep: 1, MaxRep: 2},
			label(b), label(c)}}),
	}
	p := paths.Path{a, b, c, a, b}
	for s := range p {
		plans[fmt.Sprintf("%v from %d", p, s)] = startPlan(p, s)
	}
	for name, plan := range plans {
		cache := relcache.New(relcache.Options{})
		_, st, err := Run(g, plan, Options{Cache: cache})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cs := cache.Stats()
		if st.CacheHits != 0 || st.CacheMisses == 0 || cs.Misses != cs.Puts || cs.Puts != uint64(st.CacheMisses) {
			t.Errorf("%s: relcache misses %d and puts %d, the run's hits %d and misses %d; want no hit and all three equal",
				name, cs.Misses, cs.Puts, st.CacheHits, st.CacheMisses)
		}
	}
}
