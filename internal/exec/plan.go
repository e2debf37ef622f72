package exec

import (
	"fmt"

	"repro/internal/paths"
)

// Estimator supplies selectivity estimates to the planner. Both
// *core.PathHistogram (wrapped) and exact censuses satisfy it via
// EstimatorFunc.
type Estimator interface {
	Estimate(p paths.Path) float64
}

// EstimatorFunc adapts a function to the Estimator interface.
type EstimatorFunc func(p paths.Path) float64

// Estimate implements Estimator.
func (f EstimatorFunc) Estimate(p paths.Path) float64 { return f(p) }

// Planner chooses join plans from selectivity estimates. A length-k query
// has k zig-zag plans (one per start position); the planner costs each as
// the sum of its estimated intermediate-segment selectivities and picks
// the cheapest, so the spread between the k costs is exactly where
// estimator quality turns into plan quality.
type Planner struct {
	Est Estimator
	// Cached, when non-nil, reports whether a segment's finished relation
	// (forward orientation) is already materialized in the execution
	// layer's segment-relation cache (internal/relcache). The bushy DP
	// (CostTree/ChooseTree) then treats such segments as zero-build-cost
	// leaves — the executor adopts them whole — which is what lets bushy
	// trees win on warm workloads: a join of two cached segments costs
	// only its consume estimates, while linear growth still pays for
	// every uncached intermediate. The probe must not perturb the cache
	// (relcache.Cache.Contains is side-effect-free). Plan choice becomes
	// cache-state-dependent under this field; results never do — every
	// plan produces the identical relation.
	Cached func(p paths.Path) bool
}

// PlanCost returns the estimated intermediate volume of executing p with
// the plan starting at position start: the sum of estimated selectivities
// of every segment the execution materializes and feeds into a join step,
// excluding the final result (which is plan-independent). With an exact
// estimator it equals ExecutePlanChecked's Stats.Work. It panics on an empty
// path or out-of-range start.
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

// SegTable holds the estimate of every proper contiguous segment of one
// path — Estimate(p[i:j)) for 0 ≤ i < j ≤ len(p) short of the whole path —
// each asked of the estimator exactly once: k(k+1)/2 − 1 calls for a
// length-k path. Every plan search over the path (the zig-zag spread, the
// bushy DP, a DAG run block) is arithmetic over this table, so one table
// serves them all, and a retained table lets a query be replanned against
// a changed cache state with no estimator calls at all. The whole path is
// the result, no plan's intermediate, and is never asked: callers plan
// queries one label longer than their estimator covers. A table is
// immutable once built and safe to share across goroutines; it retains p,
// which the caller must not modify.
type SegTable struct {
	p paths.Path
	// est is triangular, indexed by tri: row i holds its len(p)−i segments
	// in j order. The whole path's slot stays zero and is never read.
	est []float64
}

// tri indexes the triangular per-segment tables (SegTable.est, the bushy
// DP's cells) of a length-k path: segment [i, j), 0 ≤ i < j ≤ k.
func tri(k, i, j int) int { return i*k - i*(i-1)/2 + j - i - 1 }

// Segments fills p's segment table from the planner's estimator.
func (pl Planner) Segments(p paths.Path) *SegTable {
	k := len(p)
	t := &SegTable{p: p, est: make([]float64, k*(k+1)/2)}
	for i, at := 0, 0; i < k; i++ {
		for j := i + 1; j <= k; j, at = j+1, at+1 {
			if j-i < k {
				t.est[at] = pl.Est.Estimate(p[i:j])
			}
		}
	}
	return t
}

// Costs returns the estimated cost of all len(p) zig-zag plans, indexed by
// start position: PlanCost for every start, summed over the table in
// PlanCost's order, so each cost is the same float.
func (t *SegTable) Costs() []float64 {
	k := len(t.p)
	out := make([]float64, k)
	for start := range out {
		var cost float64
		hi := k
		if start == 0 {
			hi = k - 1
		}
		for j := start + 1; j <= hi; j++ {
			cost += t.est[tri(k, start, j)]
		}
		for i := start - 1; i >= 1; i-- {
			cost += t.est[tri(k, i, k)]
		}
		out[start] = cost
	}
	return out
}

// Costs returns the estimated cost of all len(p) zig-zag plans, indexed
// by start position.
func (pl Planner) Costs(p paths.Path) []float64 {
	return pl.Segments(p).Costs()
}

// ChoosePlan returns the cheapest of the k zig-zag plans. Ties are broken
// deterministically: the lowest start index wins, so equal-cost plan sets
// always resolve to the same plan regardless of how the costs were
// produced. (The forward plan, start 0, therefore still wins the
// all-equal case, and it is also the cheapest to execute — endpoint plans
// skip the two linear reversal passes.)
func (pl Planner) ChoosePlan(p paths.Path) Plan {
	return CheapestPlan(pl.Costs(p))
}

// CheapestPlan picks the winning plan from a per-start cost slice (as
// returned by Costs) using ChoosePlan's tie-break rule: strictly lower
// cost wins, and on ties the lowest start index wins. It panics on an
// empty slice.
func CheapestPlan(costs []float64) Plan {
	k := len(costs)
	if k == 0 {
		panic("exec: plan for empty path query")
	}
	best := 0
	for s := 1; s < k; s++ {
		if costs[s] < costs[best] {
			best = s
		}
	}
	return Plan{Start: best}
}
