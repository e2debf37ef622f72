package exec

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/paths"
)

func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	return dataset.ErdosRenyi(60, 400, dataset.NewZipfLabels(3, 1.1), 17).Freeze()
}

// startPlan is the hand-built plan running p as the zig-zag from start.
func startPlan(p paths.Path, start int) *DagPlan {
	return PathPlan(p, &PlanTree{Lo: 0, Hi: len(p), Start: start})
}

// zeroPlan plans d with a zero estimator: every run a forward leaf.
func zeroPlan(g *graph.CSR, d *RPQDag) *DagPlan {
	return Planner{Est: EstimatorFunc(func(paths.Path) float64 { return 0 })}.Plan(d, g.NumVertices())
}

// runPlan executes a zig-zag plan that must survive, keeping its result
// relation for the caller to compare.
func runPlan(t testing.TB, g *graph.CSR, p paths.Path, start int, opt Options) (*bitset.HybridRelation, Stats) {
	t.Helper()
	return runTree(t, g, p, &PlanTree{Lo: 0, Hi: len(p), Start: start}, opt)
}

// runTree executes a plan tree that must survive, keeping its result
// relation for the caller to compare.
func runTree(t testing.TB, g *graph.CSR, p paths.Path, tree *PlanTree, opt Options) (*bitset.HybridRelation, Stats) {
	t.Helper()
	opt.KeepResult = true
	rel, st, err := Run(g, PathPlan(p, tree), opt)
	if err != nil {
		t.Fatalf("path %v tree %s: %v", p, tree.Describe(len(p)), err)
	}
	return rel, st
}

func TestExecuteDirectionsAgree(t *testing.T) {
	g := testGraph(t)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(4)
		p := make(paths.Path, n)
		for i := range p {
			p[i] = rng.Intn(3)
		}
		fwd, fst := runPlan(t, g, p, 0, Options{})
		bwd, bst := runPlan(t, g, p, len(p)-1, Options{})
		if !fwd.Equal(bwd) {
			t.Fatalf("path %v: forward and backward results differ", p)
		}
		if fst.Result != bst.Result {
			t.Fatalf("path %v: result counts differ %d vs %d", p, fst.Result, bst.Result)
		}
		if fst.Result != paths.Selectivity(g, p) {
			t.Fatalf("path %v: result %d != selectivity %d", p, fst.Result, paths.Selectivity(g, p))
		}
	}
}

func TestExecuteAllPlansAgree(t *testing.T) {
	g := testGraph(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(4)
		p := make(paths.Path, n)
		for i := range p {
			p[i] = rng.Intn(3)
		}
		ref, rst := runPlan(t, g, p, 0, Options{})
		for s := 1; s < n; s++ {
			rel, st := runPlan(t, g, p, s, Options{})
			if !rel.Equal(ref) {
				t.Fatalf("path %v: plan start %d result differs from forward", p, s)
			}
			if st.Result != rst.Result {
				t.Fatalf("path %v: plan start %d result count %d != %d", p, s, st.Result, rst.Result)
			}
			if len(st.Intermediates) != n-1 {
				t.Fatalf("path %v: plan start %d has %d intermediates, want %d",
					p, s, len(st.Intermediates), n-1)
			}
		}
	}
}

func TestExecuteIntermediatesAreSelectivities(t *testing.T) {
	g := testGraph(t)
	p := paths.Path{0, 1, 2}
	_, fst := runPlan(t, g, p, 0, Options{})
	if len(fst.Intermediates) != 2 {
		t.Fatalf("forward intermediates = %v", fst.Intermediates)
	}
	if fst.Intermediates[0] != paths.Selectivity(g, p[:1]) {
		t.Fatal("first forward intermediate should be f(l1)")
	}
	if fst.Intermediates[1] != paths.Selectivity(g, p[:2]) {
		t.Fatal("second forward intermediate should be f(l1/l2)")
	}
	_, bst := runPlan(t, g, p, len(p)-1, Options{})
	if bst.Intermediates[0] != paths.Selectivity(g, p[2:]) {
		t.Fatal("first backward intermediate should be f(l3)")
	}
	if bst.Intermediates[1] != paths.Selectivity(g, p[1:]) {
		t.Fatal("second backward intermediate should be f(l2/l3)")
	}
	if fst.Work != fst.Intermediates[0]+fst.Intermediates[1] {
		t.Fatal("work must sum intermediates")
	}
	// A zig-zag start at 1 materializes f(l2), then f(l2/l3), then prepends.
	_, zst := runPlan(t, g, p, 1, Options{})
	if zst.Intermediates[0] != paths.Selectivity(g, p[1:2]) {
		t.Fatal("first zig-zag intermediate should be f(l2)")
	}
	if zst.Intermediates[1] != paths.Selectivity(g, p[1:]) {
		t.Fatal("second zig-zag intermediate should be f(l2/l3)")
	}
}

func TestExecuteSingleLabel(t *testing.T) {
	g := testGraph(t)
	_, st := runPlan(t, g, paths.Path{1}, 0, Options{})
	if len(st.Intermediates) != 0 || st.Work != 0 {
		t.Fatal("single-label query has no intermediates")
	}
	if st.Result != paths.Selectivity(g, paths.Path{1}) {
		t.Fatal("single-label result wrong")
	}
}

func TestExecutePanics(t *testing.T) {
	g := testGraph(t)
	for name, fn := range map[string]func(){
		"dense empty path": func() { oracle.ExecuteDense(g, paths.Path{}, oracle.Forward) },
		"bad direction":    func() { oracle.ExecuteDense(g, paths.Path{0}, oracle.Direction(7)) },
		"empty plan":       func() { Run(g, startPlan(paths.Path{}, 0), Options{}) },
		"plan start low":   func() { Run(g, startPlan(paths.Path{0, 1}, -1), Options{}) },
		"plan start high":  func() { Run(g, startPlan(paths.Path{0, 1}, 2), Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDirectionString(t *testing.T) {
	if oracle.Forward.String() != "forward" || oracle.Backward.String() != "backward" {
		t.Fatal("direction names wrong")
	}
	if oracle.Direction(9).String() != "Direction(9)" {
		t.Fatal("unknown direction name wrong")
	}
}

func TestPlanDescribe(t *testing.T) {
	p := make(paths.Path, 4)
	if startPlan(p, 0).Describe() != "forward" ||
		startPlan(p, 3).Describe() != "backward" ||
		startPlan(p, 2).Describe() != "zigzag@2" {
		t.Fatal("plan descriptions wrong")
	}
}

func TestPlannerCostsFromExactEstimates(t *testing.T) {
	g := testGraph(t)
	c := oracle.NewCensus(g, 4)
	pl := Planner{Est: EstimatorFunc(func(p paths.Path) float64 {
		return float64(c.Selectivity(p))
	})}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		p := make(paths.Path, n)
		for i := range p {
			p[i] = rng.Intn(3)
		}
		// With exact estimates, every plan's cost equals its actual work.
		plan := pl.Plan(PathDag(p), 0)
		works := make([]int64, n)
		for s := 0; s < n; s++ {
			_, st := runPlan(t, g, p, s, Options{})
			if got := plan.Costs[s]; got != float64(st.Work) {
				t.Fatalf("path %v start %d: cost %v != actual work %d", p, s, got, st.Work)
			}
			works[s] = st.Work
		}
		// Therefore the chosen plan is no costlier than any zig-zag plan.
		_, cst, err := Run(g, plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s := slices.Index(works, slices.Min(works)); cst.Work > works[s] {
			t.Fatalf("path %v: chose %s (work %d) over cheaper start %d (work %d)",
				p, plan.Describe(), cst.Work, s, works[s])
		}
	}
}

func TestPlannerTieGoesForward(t *testing.T) {
	pl := Planner{Est: EstimatorFunc(func(paths.Path) float64 { return 1 })}
	if pl.Plan(PathDag(paths.Path{0, 1, 2}), 0).Tree.Start != 0 {
		t.Fatal("plan ties should go forward")
	}
}
