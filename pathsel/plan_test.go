package pathsel

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
)

func planTestEstimator(t *testing.T) (*Graph, *Estimator) {
	t.Helper()
	g, err := GenerateDataset("Moreno health", 0.15, 9)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Build(g, Config{MaxPathLength: 3, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	return g, est
}

func TestPlanQueryShape(t *testing.T) {
	_, est := planTestEstimator(t)
	labels := est.Labels()
	q := strings.Join([]string{labels[0], labels[1], labels[0]}, "/")
	plan, err := planQuery(est, q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Start < 0 || plan.Start >= 3 {
		t.Fatalf("plan start %d out of range", plan.Start)
	}
	if len(plan.Costs) != 3 {
		t.Fatalf("expected 3 candidate costs, got %d", len(plan.Costs))
	}
	if plan.EstimatedCost != plan.Costs[plan.Start] {
		t.Fatal("EstimatedCost must be the chosen candidate's cost")
	}
	for s, c := range plan.Costs {
		if c < plan.EstimatedCost {
			t.Fatalf("chose start %d (cost %v) over cheaper start %d (cost %v)",
				plan.Start, plan.EstimatedCost, s, c)
		}
	}
	if plan.Description == "" {
		t.Fatal("plan description empty")
	}
}

func TestExecuteQueryMatchesTrueSelectivity(t *testing.T) {
	g, est := planTestEstimator(t)
	labels := g.Labels()
	queries := []string{
		labels[0],
		labels[0] + "/" + labels[1],
		labels[1] + "/" + labels[0] + "/" + labels[1],
	}
	for _, q := range queries {
		st, err := executeQuery(est, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.TrueSelectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Result != want {
			t.Fatalf("query %q: executed result %d != exact selectivity %d", q, st.Result, want)
		}
		segs := strings.Count(q, "/") + 1
		if len(st.Intermediates) != segs-1 {
			t.Fatalf("query %q: %d intermediates, want %d", q, len(st.Intermediates), segs-1)
		}
		var work int64
		for _, v := range st.Intermediates {
			work += v
		}
		if st.Work != work {
			t.Fatalf("query %q: Work %d != Σ intermediates %d", q, st.Work, work)
		}
	}
}

func TestExecuteQueryHonorsDensityThreshold(t *testing.T) {
	g, err := GenerateDataset("Moreno health", 0.15, 9)
	if err != nil {
		t.Fatal(err)
	}
	var results []int64
	for _, density := range []float64{0, 1e-9, 1.0} {
		est, err := Build(g, Config{MaxPathLength: 3, Buckets: 32, DensityThreshold: density})
		if err != nil {
			t.Fatal(err)
		}
		labels := g.Labels()
		st, err := executeQuery(est, labels[0]+"/"+labels[1]+"/"+labels[0])
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, st.Result)
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatalf("DensityThreshold changed results: %v", results)
	}
}

// TestBushyPlansIsInert pins Config.BushyPlans, kept only for the frozen
// benchmark, as ignored: with and without it the same queries compile to
// the same plan, whose tree the handle runs (dp.Tree) and whose result is
// the exact selectivity. The plan tree's estimated cost can never exceed
// the best zig-zag candidate — the linear plans are leaves of the tree
// space.
func TestBushyPlansIsInert(t *testing.T) {
	g, err := GenerateDataset("Moreno health", 0.15, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(g, Config{MaxPathLength: 4, Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	knob, err := Build(g, Config{MaxPathLength: 4, Buckets: 32, BushyPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	labels := g.Labels()
	queries := []string{
		labels[0],
		labels[0] + "/" + labels[1],
		labels[1] + "/" + labels[0] + "/" + labels[1],
		labels[0] + "/" + labels[1] + "/" + labels[0] + "/" + labels[1],
	}
	for _, q := range queries {
		p, err := planQuery(plain, q)
		if err != nil {
			t.Fatal(err)
		}
		kp, err := planQuery(knob, q)
		if err != nil {
			t.Fatal(err)
		}
		if kp.Description != p.Description || kp.EstimatedCost != p.EstimatedCost || !slices.Equal(kp.Costs, p.Costs) {
			t.Fatalf("query %q: BushyPlans planned %s at %v, without it %s at %v", q, kp.Description, kp.EstimatedCost, p.Description, p.EstimatedCost)
		}
		if best := slices.Min(p.Costs); p.EstimatedCost > best {
			t.Fatalf("query %q: tree cost %v exceeds best zig-zag cost %v", q, p.EstimatedCost, best)
		}
		if tree := p.dp.Tree; tree.IsLeaf() && p.Start != tree.Start || !tree.IsLeaf() && p.Start != -1 {
			t.Fatalf("query %q: tree %s starts at %d, plan at %d", q, p.Description, tree.Start, p.Start)
		}
		st, err := executeQuery(plain, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.TrueSelectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Result != want {
			t.Fatalf("query %q: result %d != exact selectivity %d", q, st.Result, want)
		}
	}
}

func TestPlanQueryErrors(t *testing.T) {
	_, est := planTestEstimator(t)
	if _, err := planQuery(est, "no-such-label"); err == nil {
		t.Fatal("unknown label should error")
	}
	labels := est.Labels()
	long := strings.Join([]string{labels[0], labels[0], labels[0], labels[0]}, "/")
	if _, err := planQuery(est, long); err == nil {
		t.Fatal("over-length query should error")
	}
	if _, err := executeQuery(est, ""); err == nil {
		t.Fatal("empty query should error")
	}
}

// samePlan reports whether two plans are one: the same description, start
// and tree, and the same costs to the bit.
func samePlan(a, b QueryPlan) bool {
	bits := func(c []float64) []uint64 {
		out := make([]uint64, len(c))
		for i, v := range c {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	return a.Description == b.Description && a.Start == b.Start && a.dp.Tree == b.dp.Tree &&
		math.Float64bits(a.EstimatedCost) == math.Float64bits(b.EstimatedCost) &&
		slices.Equal(bits(a.Costs), bits(b.Costs))
}

// TestCompiledQueryRunsItsCompilePlan pins that an execution runs the plan
// Compile made and plans nothing itself. A query compiled cold over a
// cache is linear; once its two halves are cached, a fresh
// compile of it joins them, yet the handle compiled cold still runs its
// linear plan and answers what an estimator that never warmed answers.
func TestCompiledQueryRunsItsCompilePlan(t *testing.T) {
	g := batchTestGraph(t, 1, 60, 3, 400)
	cfg := Config{MaxPathLength: 4, Buckets: 8, CacheBytes: DefaultCacheBytes}
	build := func() *Estimator {
		est, err := Build(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	const q = "a/b/c/a"
	ref, err := executeQuery(build(), q)
	if err != nil {
		t.Fatal(err)
	}
	est := build()
	x, err := est.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if !x.plan.dp.Tree.IsLeaf() {
		t.Fatalf("cold compile chose %s, want a linear plan", x.Plan().Description)
	}
	for _, half := range []string{"a/b", "c/a"} {
		if _, err := executeQuery(est, half); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := planQuery(est, q)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.dp.Tree.IsLeaf() {
		t.Fatalf("a compile over the cached halves chose %s, want a join of them", fresh.Description)
	}
	st, err := x.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !samePlan(st.Plan, x.Plan()) {
		t.Fatalf("execution ran %s at %v, compiled %s at %v",
			st.Plan.Description, st.Plan.EstimatedCost, x.Plan().Description, x.Plan().EstimatedCost)
	}
	if st.Result != ref.Result {
		t.Fatalf("warm execution answered %d, cold %d", st.Result, ref.Result)
	}
}
