package pathsel

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/paths"
)

// QueryPlan is the join strategy an Estimator chooses for a path query: a
// zig-zag plan that starts the join at one label position and grows both
// ways. A length-k query has k candidate plans; the estimator costs each
// as the sum of its estimated intermediate-result sizes and picks the
// cheapest, so histogram quality directly becomes plan quality.
type QueryPlan struct {
	// Start is the label position the join grows from: 0 is the classic
	// forward (left-to-right) join, k−1 the backward join, interior values
	// start at an estimated-selective label and grow both ways.
	Start int
	// Description is "forward", "backward", or "zigzag@i".
	Description string
	// EstimatedCost is the chosen plan's estimated total intermediate
	// volume (sum of estimated segment selectivities, in vertex pairs).
	EstimatedCost float64
	// Costs holds the estimate for every candidate zig-zag plan, indexed
	// by start position, so callers can see the spread the choice was
	// made over.
	Costs []float64
	// Tree is the chosen plan tree when Config.BushyPlans is set, nil
	// otherwise. A leaf tree is exactly the zig-zag plan the other fields
	// describe; a join-node tree is a bushy plan — then Start is −1,
	// Description renders the tree, and EstimatedCost is the tree's cost
	// (never higher than the best zig-zag candidate in Costs, since the
	// linear space is contained in the tree space).
	Tree *exec.PlanTree

	// dp is the executable plan this is the view of.
	dp *exec.DagPlan
}

// ExecStats reports an executed path query.
type ExecStats struct {
	// Plan is the strategy that was executed.
	Plan QueryPlan
	// Intermediates holds the actual distinct-pair count entering each
	// join step: len(path)−1 entries for a linear plan; for a bushy plan
	// every materialized segment relation, including both inputs of each
	// relation×relation join, in the executor's deterministic post-order.
	Intermediates []int64
	// Work is Σ Intermediates — the actual cost the planner tried to
	// minimize.
	Work int64
	// Result is the exact selectivity |ℓ(G)| of the query.
	Result int64
	// CacheHits and CacheMisses count the execution's segment-cache
	// traffic when the estimator has a cache (Config.CacheBytes): a hit
	// adopted a previously materialized segment relation — a label
	// segment, or a regular path query's prefix, element or whole result —
	// instead of recomputing it; a miss computed and published one. On a
	// whole-query hit, a concrete path's or a regular path query's,
	// Intermediates is empty and Work 0 — nothing intermediate was
	// materialized; a query that resumed from a cached prefix reports the
	// steps after it only.
	CacheHits, CacheMisses int
	// Sched reports the execution's work-stealing scheduler activity —
	// tasks run (total and per worker), steals, and parks. All-zero when
	// every join step ran sequentially (below the granularity floor, a
	// 1-worker config, or a whole-query cache hit): zeros mean "no
	// parallel work", not "no work". Steals and parks are the contention
	// signals worth watching in production.
	Sched exec.SchedStats
	// Degraded marks a partial result: the query was rejected by the
	// admission gate or killed mid-flight under Config.DegradeToEstimate,
	// and Result holds the rounded histogram estimate instead of the
	// exact selectivity. Intermediates/Work/cache counters are zero — the
	// degraded answer did not (or did not finish) touching the graph.
	Degraded bool
	// DegradedBy is the typed cause behind a degraded result
	// (ErrAdmissionDenied, ErrDeadlineExceeded, ErrBudgetExceeded, or
	// ErrCancelled); nil when Degraded is false.
	DegradedBy error
}

// planner builds the exec.Planner view over this estimator's histogram.
// With a cache and BushyPlans, the planner is cache-aware: segments whose
// relations are already materialized cost nothing to build, so warm
// workloads steer the DP toward bushy joins of reusable segments.
func (e *Estimator) planner() exec.Planner {
	pl := exec.Planner{Est: exec.EstimatorFunc(e.ph.Estimate)}
	if e.cacheAware() {
		pl.Cached = func(p paths.Path) bool { return e.cache.Contains(p) }
	}
	return pl
}

// cacheAware reports whether planning against the estimator's cache can
// differ from planning against none: only the bushy DP consults cached
// segments.
func (e *Estimator) cacheAware() bool {
	return e.cache != nil && e.cfg.BushyPlans
}

// concretePath returns the path a plan evaluates when it is a single run
// block — the plan of a concrete path — and nil for an RPQ's.
func concretePath(dp *exec.DagPlan) paths.Path {
	if len(dp.Blocks) > 1 {
		return nil
	}
	return dp.Blocks[0].Run
}

// queryPlan is the QueryPlan view of a plan — the one rendering of what
// exec.Planner.Plan or Replan decided. A concrete path (a single run
// block) shows the winner of its candidate zig-zag plans with the cost of
// every start: the cheapest zig-zag plan, or — under Config.BushyPlans —
// the cheapest plan tree, which degenerates to the zig-zag winner whenever
// linear growth is estimated cheaper than every bushy split. A leaf is
// priced as the zig-zag plan it is even where the planner, seeing its
// whole segment cached, priced it free. Anything else is an RPQ's fold.
func (e *Estimator) queryPlan(dp *exec.DagPlan) QueryPlan {
	if concretePath(dp) == nil {
		return QueryPlan{Start: -1, Description: "rpq " + dp.Describe(), EstimatedCost: dp.Cost, dp: dp}
	}
	b := dp.Blocks[0]
	qp := QueryPlan{Start: b.Tree.Start, Description: dp.Describe(), EstimatedCost: dp.Cost, Costs: b.Costs, dp: dp}
	if b.Tree.IsLeaf() {
		qp.EstimatedCost = b.Costs[b.Tree.Start]
	}
	if e.cfg.BushyPlans {
		qp.Tree = b.Tree
	}
	return qp
}

// ExecPolicy is a per-call degradation policy, layered on top of the
// estimator-wide Config knobs by callers whose willingness to pay for
// exact answers varies request to request — a serving tier under load
// pressure (brownout) is the intended client. The zero value imposes
// nothing.
type ExecPolicy struct {
	// DegradeCostAbove, when > 0, degrades any query whose chosen plan's
	// EstimatedCost exceeds it: the call answers the rounded histogram
	// estimate before any graph access, marked Degraded with DegradedBy
	// = ErrBrownout. Unlike Config.DegradeToEstimate this does not
	// require a resource-policy kill and is independent of that flag —
	// the caller opted into estimate answers for expensive queries on
	// this call specifically.
	DegradeCostAbove float64
}

// degrades reports whether the policy degrades a plan of the given
// estimated cost.
func (pol ExecPolicy) degrades(plan QueryPlan) bool {
	return pol.DegradeCostAbove > 0 && plan.EstimatedCost > pol.DegradeCostAbove
}

// admissionBytesPerPair prices one projected vertex pair for the
// admission gate's size projection: a sparse row entry is a 4-byte id,
// doubled to absorb row headers and dense-promotion slack. Deliberately
// conservative — admission may overestimate and reject, never
// underestimate and then be caught anyway by the runtime budget check.
const admissionBytesPerPair = 8

// admit is the cost-based admission gate: it prices the chosen plan with
// the same histogram the planner used and rejects the query before any
// graph access when the estimated cost exceeds Config.MaxPlanCost, or
// when the projected peak relation size (the plan's estimated
// intermediate volume or the query's own estimated selectivity,
// whichever is larger, at admissionBytesPerPair) exceeds
// Config.MaxResultBytes.
func (e *Estimator) admit(plan QueryPlan, finalEst float64) error {
	if e.cfg.MaxPlanCost > 0 && plan.EstimatedCost > e.cfg.MaxPlanCost {
		return fmt.Errorf("%w: estimated plan cost %g exceeds MaxPlanCost %g",
			ErrAdmissionDenied, plan.EstimatedCost, e.cfg.MaxPlanCost)
	}
	if e.cfg.MaxResultBytes > 0 {
		proj := int64(math.Ceil(math.Max(plan.EstimatedCost, finalEst))) * admissionBytesPerPair
		if proj > e.cfg.MaxResultBytes {
			return fmt.Errorf("%w: projected relation size %d B exceeds MaxResultBytes %d B",
				ErrAdmissionDenied, proj, e.cfg.MaxResultBytes)
		}
	}
	return nil
}

// degradable reports whether an abort cause is a resource-policy kill
// that Config.DegradeToEstimate may soften into a histogram answer.
// Execution failures (contained panics) are excluded: those are bugs to
// surface, not load to shed.
func degradable(cause error) bool {
	return errors.Is(cause, ErrAdmissionDenied) || errors.Is(cause, ErrDeadlineExceeded) ||
		errors.Is(cause, ErrBudgetExceeded) || errors.Is(cause, ErrCancelled)
}

// degrade resolves a rejected or killed query: under
// Config.DegradeToEstimate (and a degradable cause) it answers with the
// rounded histogram estimate est, marked Degraded with the typed cause;
// otherwise the cause propagates as the error. est is passed in rather
// than recomputed so compiled RPQs degrade to their compile-time
// estimate.
func (e *Estimator) degrade(plan QueryPlan, est float64, cause error) (ExecStats, error) {
	if !e.cfg.DegradeToEstimate || !degradable(cause) {
		return ExecStats{Plan: plan}, cause
	}
	return degradeTo(plan, est, cause)
}

// degradeTo builds a degraded answer unconditionally: the rounded
// estimate, marked with the typed cause. Shared by Config-driven
// degradation (degrade) and policy-driven brownout, which bypasses the
// Config gate.
func degradeTo(plan QueryPlan, est float64, cause error) (ExecStats, error) {
	r := int64(math.Round(est))
	if r < 0 {
		r = 0
	}
	return ExecStats{Plan: plan, Result: r, Degraded: true, DegradedBy: cause}, nil
}

// execute runs one compiled query against the estimator's (possibly nil)
// segment cache — the one path every execution takes, single or batched:
// per-query deadline and canceller, the plan (Compile's as is, unless the
// live cache can change it), brownout policy, admission gate, run, stats.
// g is passed pre-frozen so concurrent batch workers never race on the
// lazy CSR freeze; the canceller carries ctx into every kernel, and an
// already-dead ctx never touches the graph; pol is checked before the
// admission gate so a brownout degrade costs at most one replan, never a
// graph access. Only the answer's counters go into ExecStats, so the
// executor is never asked to keep the result relation (exec.Options
// .KeepResult stays unset): it counts the final step where it can and
// releases what it had to build.
func (e *Estimator) execute(ctx context.Context, g *graph.CSR, x *Expr, workers int, pol ExecPolicy) (ExecStats, error) {
	if e.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.QueryTimeout)
		defer cancel()
	}
	canc, release := exec.NewCancellerContext(ctx)
	defer release()
	plan := x.plan
	if e.cacheAware() {
		// Compile planned against the cache as it was then; only a planner
		// that sees a cache can choose differently now. It decides again
		// from the estimates the plan retains — cache probes and
		// arithmetic, no histogram lookups.
		plan = e.queryPlan(e.planner().Replan(plan.dp))
	}
	if pol.degrades(plan) {
		return degradeTo(plan, x.estimate, ErrBrownout)
	}
	if err := e.admit(plan, x.estimate); err != nil {
		return e.degrade(plan, x.estimate, err)
	}
	opt := exec.Options{
		DensityThreshold: e.cfg.DensityThreshold,
		Workers:          workers,
		Cache:            e.cache,
		Cancel:           canc,
		MaxResultBytes:   e.cfg.MaxResultBytes,
		Pool:             e.pool,
	}
	_, st, err := exec.Run(g, plan.dp, opt)
	if err != nil {
		return e.degrade(plan, x.estimate, translateExecErr(err))
	}
	return ExecStats{
		Plan:          plan,
		Intermediates: st.Intermediates,
		Work:          st.Work,
		Result:        st.Result,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		Sched:         st.Sched,
	}, nil
}
