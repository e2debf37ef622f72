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
// has k zig-zag plans (one per start position) and every tree of joins
// over zig-zag leaves of its segments; the planner costs each as the sum
// of its estimated intermediate-segment selectivities and picks the
// cheapest, so the spread between the costs is exactly where estimator
// quality turns into plan quality.
type Planner struct {
	Est Estimator
	// Cached, when non-nil, reports whether a segment's finished relation
	// is already materialized in the execution layer's segment-relation
	// cache (internal/relcache). The plan search then treats such
	// segments as zero-build-cost leaves — the executor adopts them whole
	// — which is what lets join trees win on warm workloads: a join of two
	// cached segments costs only its consume estimates, while linear
	// growth still pays for every uncached intermediate. The probe must
	// not perturb the cache (relcache.Cache.Contains is side-effect-free).
	// Plan choice becomes cache-state-dependent under this field; results
	// never do — every plan produces the identical relation.
	Cached func(p paths.Path) bool
}

// NewPlanner returns the planner a caller builds once over est and the
// cache it executes against (nil for none), and plans and estimates every
// query with. Its Cached probes cache.Contains whenever there is a cache,
// so every plan prices a segment cached at planning time at 0 and asks
// the estimator nothing more for it.
func NewPlanner(est Estimator, cache *relcache.Cache) Planner {
	pl := Planner{Est: est}
	if cache != nil {
		pl.Cached = cache.Contains
	}
	return pl
}

// segTable holds the estimate of every proper contiguous segment of one
// path — Estimate(p[i:j)) for 0 ≤ i < j ≤ len(p) short of the whole path —
// each asked of the estimator exactly once: k(k+1)/2 − 1 calls for a
// length-k path. The plan search over the path (chooseTree: the zig-zag
// spread and the plan-tree DP) is arithmetic over this table. The whole path is
// the result, no plan's intermediate, and is never asked: callers plan
// queries one label longer than their estimator covers. The estimates are
// immutable once built; the table retains p, which the caller must not
// modify.
type segTable struct {
	p paths.Path
	// est is triangular, indexed by tri: row i holds its len(p)−i segments
	// in j order. The whole path's slot stays zero.
	est []float64
	// sums is the plan search's 2·len(p) running sums; its second half
	// becomes the per-start zig-zag costs chooseTree returns.
	sums []float64
}

// tri indexes the triangular per-segment tables (segTable.est, the plan
// search's cells) of a length-k path: segment [i, j), 0 ≤ i < j ≤ k.
func tri(k, i, j int) int { return i*k - i*(i-1)/2 + j - i - 1 }

// segments fills p's segment table from the planner's estimator.
func (pl Planner) segments(p paths.Path) segTable {
	k := len(p)
	n := k * (k + 1) / 2
	buf := make([]float64, n+2*k)
	t := segTable{p: p, est: buf[:n:n], sums: buf[n:]}
	for i, at := 0, 0; i < k; i++ {
		for j := i + 1; j <= k; j, at = j+1, at+1 {
			if j-i < k {
				t.est[at] = pl.Est.Estimate(p[i:j])
			}
		}
	}
	return t
}
