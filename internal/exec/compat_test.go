package exec

import (
	"reflect"
	"testing"

	"repro/internal/paths"
)

// TestCompatWrappersAreRun pins each compat.go wrapper equal to the call
// it adapts, on the three plan shapes: same relation, same Stats, same
// plan, same costs. Deleted with compat.go (ROADMAP item 1′).
func TestCompatWrappersAreRun(t *testing.T) {
	g := randomGraph(7, 400, 2, 6000)
	pl := randomPlanner(4, 0.3)
	for _, sh := range contractShapes(t, g) {
		// Every shape's first four elements are its concrete path.
		p, _ := (&RPQDag{Elems: sh.plan.Elems[:4]}).ConcretePath()
		want, wantSt, err := Run(g, sh.plan, Options{Workers: 1, KeepResult: true})
		if err != nil {
			t.Fatal(err)
		}
		got, st := want, wantSt
		switch sh.name {
		case "zigzag":
			got, st, err = ExecutePlanChecked(g, p, Plan{Start: sh.plan.Tree.Start}, Options{Workers: 1, KeepResult: true})
		case "bushy":
			got, st, err = ExecuteTreeChecked(g, p, sh.plan.Tree, Options{Workers: 1, KeepResult: true})
		case "dag":
			d := &RPQDag{Elems: append(PathDag(p).Elems, sh.plan.Elems[4])}
			got, st, err = ExecuteDagChecked(g, d, sh.plan, Options{Workers: 1, KeepResult: true})
			direct := pl.Plan(d, 30)
			for _, bushy := range []bool{false, true} {
				if planned := pl.PlanDag(d, 30, bushy); !reflect.DeepEqual(planned, direct) {
					t.Errorf("PlanDag(bushy=%v) = %s at %v, Plan = %s at %v", bushy, planned.Describe(), planned.Cost, direct.Describe(), direct.Cost)
				}
			}
		}
		if err != nil || !got.Equal(want) || !reflect.DeepEqual(st, wantSt) {
			t.Errorf("%s: wrapper err=%v stats %+v, Run %+v", sh.name, err, st, wantSt)
		}
		plan := pl.Plan(PathDag(p), 0)
		if costs := pl.Costs(p); !reflect.DeepEqual(costs, plan.Costs) || CheapestPlan(costs).Start != cheapest(costs) {
			t.Errorf("%s: Costs = %v choosing %d, plan's %v", sh.name, costs, CheapestPlan(costs).Start, plan.Costs)
		}
		if tree, cost := pl.ChooseTreeWithCost(p); tree.Describe(4) != plan.Describe() || cost != plan.Cost {
			t.Errorf("%s: ChooseTreeWithCost = %s at %v, plan %s at %v", sh.name, tree.Describe(4), cost, plan.Describe(), plan.Cost)
		}
	}
}

// TestCheapestTieBreak pins CheapestPlan's tie-break rule, the planner's:
// strictly lower cost wins, and among equal costs the lowest start index
// wins — including the case where an interior start ties the backward
// plan, which an earlier endpoint-preferring rule resolved differently.
func TestCheapestTieBreak(t *testing.T) {
	cases := []struct {
		costs []float64
		want  int
	}{
		{[]float64{5}, 0},
		{[]float64{5, 5, 5}, 0},       // all equal: forward
		{[]float64{5, 3, 3, 5}, 1},    // interior tie: lowest interior
		{[]float64{3, 4, 3}, 0},       // endpoint tie: forward
		{[]float64{2, 1, 1}, 1},       // interior ties backward: interior wins
		{[]float64{9, 4, 2, 4}, 2},    // unique minimum
		{[]float64{1, 0, 0, 0, 1}, 1}, // run of zeros: first
	}
	for _, c := range cases {
		if got := CheapestPlan(c.costs).Start; got != c.want {
			t.Errorf("CheapestPlan(%v) = %d, want %d", c.costs, got, c.want)
		}
	}
	// Plan must route through the same rule.
	pl := Planner{Est: EstimatorFunc(func(p paths.Path) float64 { return float64(len(p)) })}
	b := pl.Plan(PathDag(paths.Path{0, 0, 0}), 0)
	if got, want := b.Tree.Start, cheapest(b.Costs); got != want {
		t.Errorf("Plan chose start %d, cheapest(Costs) = %d", got, want)
	}
}

// TestExecuteDagCheckedRejectsAnotherQuery pins the one check compat.go
// makes: the wrapper that still receives the query beside its plan must
// not run one query's plan as another's — every block is compared, element
// blocks included (the check this replaced let `a/(b|c)`'s plan answer
// `a/(b|d)`).
func TestExecuteDagCheckedRejectsAnotherQuery(t *testing.T) {
	g := randomGraph(5, 20, 3, 40)
	alt := RPQElem{Labels: []int{1, 2}, MinRep: 1, MaxRep: 1}
	abc := &RPQDag{Elems: append(PathDag(paths.Path{0}).Elems, alt)}
	dp := zeroPlan(g, abc)
	for name, d := range map[string]*RPQDag{
		"other alternation": {Elems: []RPQElem{abc.Elems[0], {Labels: []int{0, 1}, MinRep: 1, MaxRep: 1}}},
		"other bounds":      {Elems: []RPQElem{abc.Elems[0], {Labels: []int{1, 2}, MinRep: 0, MaxRep: 1}}},
		"other run label":   {Elems: append(PathDag(paths.Path{1}).Elems, alt)},
		"one element more":  {Elems: []RPQElem{abc.Elems[0], alt, alt}},
		"one element fewer": {Elems: abc.Elems[:1]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("plan for %s run as %s (%s): expected panic", abc.Describe(), d.Describe(), name)
				}
			}()
			ExecuteDagChecked(g, d, dp, Options{})
		}()
	}
	if _, _, err := ExecuteDagChecked(g, abc, dp, Options{}); err != nil {
		t.Fatalf("plan run as its own query: %v", err)
	}
}
