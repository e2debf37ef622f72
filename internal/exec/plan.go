package exec

import (
	"repro/internal/paths"
	"repro/internal/relcache"
)

// Estimator supplies selectivity estimates to the planner.
// *core.PathHistogram satisfies it as is; an exact census, or any other
// function of a path, through EstimatorFunc.
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
	// is already materialized in the execution
	// layer's segment-relation cache (internal/relcache). The bushy DP
	// then treats such segments as zero-build-cost
	// leaves — the executor adopts them whole — which is what lets bushy
	// trees win on warm workloads: a join of two cached segments costs
	// only its consume estimates, while linear growth still pays for
	// every uncached intermediate. The probe must not perturb the cache
	// (relcache.Cache.Contains is side-effect-free). Plan choice becomes
	// cache-state-dependent under this field; results never do — every
	// plan produces the identical relation.
	Cached func(p paths.Path) bool
}

// NewPlanner returns the planner a caller builds once over est and the
// cache it executes against (nil for none), and plans, estimates and
// replans every query with. Its Cached probes cache.Contains only when
// there is a cache and bushy is set: only the bushy DP consults cached
// segments, so any other planner plans as if there were none, and a plan
// it made never needs deciding again.
func NewPlanner(est Estimator, cache *relcache.Cache, bushy bool) Planner {
	pl := Planner{Est: est}
	if cache != nil && bushy {
		pl.Cached = cache.Contains
	}
	return pl
}

// segTable holds the estimate of every proper contiguous segment of one
// path — Estimate(p[i:j)) for 0 ≤ i < j ≤ len(p) short of the whole path —
// each asked of the estimator exactly once: k(k+1)/2 − 1 calls for a
// length-k path. Every plan search over the path (the zig-zag spread, the
// bushy DP) is arithmetic over this table, so one table serves them all,
// and a plan that retains it is replanned against a changed cache state
// with no estimator calls at all. The whole path is the result, no plan's
// intermediate, and is never asked: callers plan queries one label longer
// than their estimator covers. A table is immutable once built and safe to
// share across goroutines; it retains p, which the caller must not modify.
type segTable struct {
	p paths.Path
	// est is triangular, indexed by tri: row i holds its len(p)−i segments
	// in j order. The whole path's slot stays zero and is never read.
	est []float64
	// costs is the estimated cost of each of the len(p) zig-zag plans,
	// indexed by start position. It never depends on the cache.
	costs []float64
}

// tri indexes the triangular per-segment tables (segTable.est, the bushy
// DP's cells) of a length-k path: segment [i, j), 0 ≤ i < j ≤ k.
func tri(k, i, j int) int { return i*k - i*(i-1)/2 + j - i - 1 }

// segments fills p's segment table from the planner's estimator.
func (pl Planner) segments(p paths.Path) segTable {
	k := len(p)
	n := k * (k + 1) / 2
	buf := make([]float64, n+k)
	t := segTable{p: p, est: buf[:n:n], costs: buf[n:]}
	for i, at := 0, 0; i < k; i++ {
		for j := i + 1; j <= k; j, at = j+1, at+1 {
			if j-i < k {
				t.est[at] = pl.Est.Estimate(p[i:j])
			}
		}
	}
	// The plan starting at s materializes, and feeds into a join step, its
	// rightward intermediates p[s:s+1) … p[s:k) — the last only when s > 0;
	// from the left end it is the result — and then its leftward ones
	// p[s−1:k) … p[1:k). They are summed in that order, the reference
	// definition's (PlanCost, reference_test.go), so each cost is the same
	// float; with an exact estimator it is the plan's executed Stats.Work.
	for start := range t.costs {
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
		t.costs[start] = cost
	}
	return t
}

// cheapest picks the winning zig-zag start from a per-start cost slice:
// strictly lower cost wins, and on ties the lowest start index wins, so
// equal-cost plan sets always resolve to the same plan regardless of how
// the costs were produced. (The forward plan, start 0, therefore still
// wins the all-equal case.)
func cheapest(costs []float64) int {
	best := 0
	for s := 1; s < len(costs); s++ {
		if costs[s] < costs[best] {
			best = s
		}
	}
	return best
}
