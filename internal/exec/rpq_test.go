package exec

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// randomDag draws a small well-formed RPQ over numLabels labels:
// 1–3 elements mixing plain labels, alternations, optionals, and
// bounded repetitions, re-drawn until MinLen ≥ 1.
func randomDag(rng *rand.Rand, numLabels int) *RPQDag {
	for {
		d := &RPQDag{}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			var labels []int
			for _, l := range rng.Perm(numLabels)[:1+rng.Intn(2)] {
				labels = append(labels, l)
			}
			sortInts(labels)
			lo := rng.Intn(2)
			hi := max(1, lo+rng.Intn(3-lo))
			d.Elems = append(d.Elems, RPQElem{Labels: labels, MinRep: lo, MaxRep: hi})
		}
		if d.MinLen() >= 1 && d.MaxLen() <= 6 {
			return d
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// expansionUnion is the oracle: the union of every enumerated concrete
// path's relation, each built by the plain checked executor.
func expansionUnion(t *testing.T, g *graph.CSR, d *RPQDag, opt Options) *bitset.HybridRelation {
	t.Helper()
	exps, ok := d.Expansions(100000)
	if !ok {
		t.Fatalf("dag %s: expansion overflow", d.Describe())
	}
	out := bitset.NewHybrid(g.NumVertices(), opt.DensityThreshold)
	for _, p := range exps {
		rel, _, err := Run(g, startPlan(p, 0), Options{DensityThreshold: opt.DensityThreshold, KeepResult: true})
		if err != nil {
			t.Fatalf("oracle path %v: %v", p, err)
		}
		out.UnionWith(rel)
	}
	return out
}

// TestExecuteDagMatchesExpansionUnion pins the tentpole equivalence:
// the DAG fold is bit-identical to the union of its enumerated
// concrete-path expansions, at workers 1–8, planned and zero-estimate,
// cached and uncached.
func TestExecuteDagMatchesExpansionUnion(t *testing.T) {
	g := testGraph(t)
	est := EstimatorFunc(func(p paths.Path) float64 { return float64(paths.Selectivity(g, p)) })
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		d := randomDag(rng, g.NumLabels())
		want := expansionUnion(t, g, d, Options{})
		for _, workers := range []int{1, 2, 4, 8} {
			dp := Planner{Est: est}.Plan(d, g.NumVertices())
			got, st, err := Run(g, dp, Options{Workers: workers, KeepResult: true})
			if err != nil {
				t.Fatalf("dag %s workers=%d: %v", d.Describe(), workers, err)
			}
			if !got.Equal(want) {
				t.Fatalf("dag %s workers=%d: result differs from expansion union", d.Describe(), workers)
			}
			if st.Result != want.Pairs() {
				t.Fatalf("dag %s: Result %d != %d", d.Describe(), st.Result, want.Pairs())
			}
		}
		// Zero-estimate (every run forward) and cache-warmed runs must
		// agree too.
		got, _, err := Run(g, zeroPlan(g, d), Options{KeepResult: true})
		if err != nil {
			t.Fatalf("dag %s unplanned: %v", d.Describe(), err)
		}
		if !got.Equal(want) {
			t.Fatalf("dag %s: unplanned result differs", d.Describe())
		}
		cache := relcache.New(relcache.Options{MaxBytes: 1 << 20})
		for pass := 0; pass < 2; pass++ {
			got, _, err := Run(g, zeroPlan(g, d), Options{Cache: cache, KeepResult: true})
			if err != nil {
				t.Fatalf("dag %s cached pass %d: %v", d.Describe(), pass, err)
			}
			if !got.Equal(want) {
				t.Fatalf("dag %s: cached pass %d differs", d.Describe(), pass)
			}
		}
	}
}

// TestExecuteDagRepetitionSharesCache pins the cache-sharing rule of an
// unrolled element, U = A^lo ∘ (A ∪ I)^(MaxRep−lo) with lo = max(1, MinRep):
// a power step below lo publishes under its repeated-label path key, a skip
// step below MaxRep nowhere, and the last step, U, under the element's own.
// So a cold b{1,3} publishes b{1,3} alone; a warm one adopts U and runs no
// step; a cold b{2,3} publishes bb and b{2,3}, and a concrete b/b adopts
// that bb; and a b{2,3} over a cache holding bb and bbb from concrete
// queries adopts bb and runs one step.
func TestExecuteDagRepetitionSharesCache(t *testing.T) {
	g := testGraph(t)
	b := func(lo, hi int) *DagPlan {
		return zeroPlan(g, &RPQDag{Elems: []RPQElem{{Labels: []int{1}, MinRep: lo, MaxRep: hi}}})
	}
	run := func(ctx string, plan *DagPlan, cache *relcache.Cache, hits, misses int) Stats {
		t.Helper()
		_, st, err := Run(g, plan, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != hits || st.CacheMisses != misses {
			t.Fatalf("%s: hits=%d misses=%d, want %d/%d", ctx, st.CacheHits, st.CacheMisses, hits, misses)
		}
		return st
	}
	cache := relcache.New(relcache.Options{MaxBytes: 1 << 20})
	cold := run("cold b{1,3}: U published", b(1, 3), cache, 0, 1)
	if warm := run("warm b{1,3}", b(1, 3), cache, 1, 0); len(warm.Intermediates) != 0 || warm.Result != cold.Result {
		t.Fatalf("warm b{1,3}: %+v, want no step and the cold result %d", warm, cold.Result)
	}
	powers := relcache.New(relcache.Options{MaxBytes: 1 << 20})
	cold23 := run("cold b{2,3}: bb and U published", b(2, 3), powers, 0, 2)
	run("concrete b/b after b{2,3}", startPlan(paths.Path{1, 1}, 0), powers, 1, 0)
	concrete := relcache.New(relcache.Options{MaxBytes: 1 << 20})
	for _, p := range []paths.Path{{1, 1}, {1, 1, 1}} {
		if _, _, err := Run(g, startPlan(p, 0), Options{Cache: concrete}); err != nil {
			t.Fatal(err)
		}
	}
	if st := run("b{2,3} over bb and bbb", b(2, 3), concrete, 1, 1); st.Result != cold23.Result {
		t.Fatalf("b{2,3} over bb and bbb: result %d, want %d", st.Result, cold23.Result)
	}
}

// TestDagExpansions pins the enumeration: order-determinism, dedup of
// overlapping repetition windows, and the overflow signal.
func TestDagExpansions(t *testing.T) {
	d := &RPQDag{Elems: []RPQElem{
		{Labels: []int{0}, MinRep: 0, MaxRep: 1},
		{Labels: []int{1, 2}, MinRep: 1, MaxRep: 1},
	}}
	exps, ok := d.Expansions(100)
	if !ok || len(exps) != 4 {
		t.Fatalf("a?/(b|c): got %v ok=%v, want 4 expansions", exps, ok)
	}
	want := []paths.Path{{1}, {2}, {0, 1}, {0, 2}}
	for i := range want {
		if !exps[i].Equal(want[i]) {
			t.Fatalf("expansion %d = %v, want %v", i, exps[i], want[i])
		}
	}
	// a{1,2}/a{1,2} reaches a³ twice; the enumeration dedups it.
	dd := &RPQDag{Elems: []RPQElem{
		{Labels: []int{0}, MinRep: 1, MaxRep: 2},
		{Labels: []int{0}, MinRep: 1, MaxRep: 2},
	}}
	exps, ok = dd.Expansions(100)
	if !ok || len(exps) != 3 {
		t.Fatalf("a{1,2}/a{1,2}: got %d expansions, want 3 (a², a³, a⁴)", len(exps))
	}
	if _, ok := dd.Expansions(2); ok {
		t.Fatal("limit 2 should overflow")
	}
}

// TestPlanRunDecomposition pins the block decomposition: maximal
// plain-label runs collapse into one planned block, and the fold chains the
// blocks left-deep — here composing through the alternation and then the
// one-label run, each a step node.
func TestPlanRunDecomposition(t *testing.T) {
	g := testGraph(t)
	est := EstimatorFunc(func(p paths.Path) float64 { return float64(paths.Selectivity(g, p)) })
	d := &RPQDag{Elems: []RPQElem{
		{Labels: []int{0}, MinRep: 1, MaxRep: 1},
		{Labels: []int{1}, MinRep: 1, MaxRep: 1},
		{Labels: []int{1, 2}, MinRep: 1, MaxRep: 1},
		{Labels: []int{2}, MinRep: 1, MaxRep: 1},
	}}
	dp := Planner{Est: est}.Plan(d, g.NumVertices())
	root := dp.Tree
	if root.Right != nil || root.Left == nil || root.Left.Hi != 3 || root.Left.Right != nil {
		t.Fatalf("plan %s, want step nodes through (1|2) and then the run [3,4)", dp.Describe())
	}
	if run := root.Left.Left; run.Lo != 0 || run.Hi != 2 {
		t.Fatalf("plan %s, want the run [0,2) as the first block", dp.Describe())
	}
	if dp.Cost <= 0 || dp.ResultEst < 0 {
		t.Fatalf("plan cost %f / est %f not positive", dp.Cost, dp.ResultEst)
	}
}

// TestFillAllocatesNothing pins the pooled multi-label base
// allocation-free in steady state: the operand list stays on the stack,
// the accumulator is the stepper's, and rows on both sides of the
// promotion limit reuse the destination's storage.
func TestFillAllocatesNothing(t *testing.T) {
	g := randomGraph(3, 300, 4, 3000)
	opt, pool, _ := checkedOptions(g.NumVertices(), 1)
	x := newCore(g, opt)
	var dst *bitset.HybridRelation
	fill := func() { // releases the last base and takes it back from the pool
		x.drop(dst)
		var err error
		if dst, err = x.fill([]int{0, 1, 2, 3}, false); err != nil {
			t.Fatal(err)
		}
	}
	fill() // builds the stepper and grows dst's rows
	sparse, dense := 0, 0
	for v := 0; v < g.NumVertices(); v++ {
		if dst.RowDense(v) {
			dense++
		} else if dst.RowCount(v) > 0 {
			sparse++
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("base has %d sparse and %d dense rows, want both", sparse, dense)
	}
	if n := testing.AllocsPerRun(50, fill); n != 0 {
		t.Errorf("steady-state fill allocates %v times a run, want 0", n)
	}
	x.drop(dst)
	if pool.InUse() != 0 {
		t.Errorf("%d relations still checked out", pool.InUse())
	}
}
