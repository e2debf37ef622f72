package exec

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/paths"
)

// This file is everything the frozen bench/ module still compiles against
// that the package no longer provides: the pre-Run names, each a wrapper
// over Planner.Plan, PathPlan and Run with no logic of its own but
// cheapest, the tie-break the plan search applies as it prices. Nothing
// outside bench/ and compat_test.go may reference it (the layer rule
// "compat.go serves bench/ only" in the module root's rules_test.go).
// ROADMAP item 1′(b) deletes this file and compat_test.go once the
// benchmark's next version (item 16(b)) has moved bench/ onto a shim over
// Run.

// Plan is a forced zig-zag start: the leaf &PlanTree{Lo: 0, Hi: k, Start:
// Start} of a length-k path.
type Plan struct {
	Start int
}

// CheapestPlan is the planner's tie-break rule over a per-start cost slice.
func CheapestPlan(costs []float64) Plan { return Plan{Start: cheapest(costs)} }

// cheapest picks the winning zig-zag start from a per-start cost slice:
// strictly lower cost wins, and on ties the lowest start index wins — the
// rule the plan search applies as it prices each start (the forward plan,
// start 0, wins the all-equal case).
func cheapest(costs []float64) int {
	best := 0
	for s := 1; s < len(costs); s++ {
		if costs[s] < costs[best] {
			best = s
		}
	}
	return best
}

// Costs is DagPlan.Costs of p's plan without the plan.
func (pl Planner) Costs(p paths.Path) []float64 {
	_, _, costs := pl.segments(p).chooseTree(nil, 0)
	return costs
}

// ChooseTreeWithCost is the Tree and Cost of p's plan.
func (pl Planner) ChooseTreeWithCost(p paths.Path) (*PlanTree, float64) {
	tree, cost, _ := pl.segments(p).chooseTree(pl.Cached, 0)
	return tree, cost
}

// PlanDag is Plan; bushy is ignored, since every plan is searched over
// the plan-tree space.
func (pl Planner) PlanDag(d *RPQDag, n int, bushy bool) *DagPlan { return pl.Plan(d, n) }

// ExecutePlanChecked runs p from a forced zig-zag start.
func ExecutePlanChecked(g *graph.CSR, p paths.Path, plan Plan, opt Options) (*bitset.HybridRelation, Stats, error) {
	return Run(g, PathPlan(p, &PlanTree{Lo: 0, Hi: len(p), Start: plan.Start}), opt)
}

// ExecuteTreeChecked runs p under a hand-built tree.
func ExecuteTreeChecked(g *graph.CSR, p paths.Path, tree *PlanTree, opt Options) (*bitset.HybridRelation, Stats, error) {
	return Run(g, PathPlan(p, tree), opt)
}

// ExecuteDagChecked runs dp, which must have been planned for d. Run
// executes the plan's own copy of the query, so this is the one place a
// second copy can disagree with it, and the one check this file makes: it
// panics unless dp's elements are exactly d's — labels and repetition
// bounds.
func ExecuteDagChecked(g *graph.CSR, d *RPQDag, dp *DagPlan, opt Options) (*bitset.HybridRelation, Stats, error) {
	if !slices.EqualFunc(dp.Elems, d.Elems, func(a, b RPQElem) bool {
		return slices.Equal(a.Labels, b.Labels) && a.MinRep == b.MinRep && a.MaxRep == b.MaxRep
	}) {
		panic("exec: dag plan was planned for " + (&RPQDag{Elems: dp.Elems}).Describe() + ", not " + d.Describe())
	}
	return Run(g, dp, opt)
}
