package pathsel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/exec"
)

// QueryPlan is the join strategy an Estimator chooses for a path query at
// Compile: a zig-zag plan that starts the join at one label position and
// grows both ways. A length-k query has k candidate plans; the estimator
// costs each as the sum of its estimated intermediate-result sizes and
// picks the cheapest, so histogram quality directly becomes plan quality.
// Under Config.BushyPlans and a cache the choice sees the cache as Compile
// found it; every execution of the compiled query runs this plan.
type QueryPlan struct {
	// Start is the label position the join grows from: 0 is the classic
	// forward (left-to-right) join, k−1 the backward join, interior values
	// start at an estimated-selective label and grow both ways. It is −1
	// for a bushy plan tree (Config.BushyPlans) and for an RPQ's fold.
	Start int
	// Description is "forward", "backward", or "zigzag@i" — for a bushy
	// plan the rendered tree, for an RPQ "rpq " and its fold.
	Description string
	// EstimatedCost is the chosen plan's estimated total intermediate
	// volume (sum of estimated segment selectivities, in vertex pairs); a
	// bushy tree's is never higher than the best zig-zag candidate in
	// Costs, since the linear space is contained in the tree space.
	EstimatedCost float64
	// Costs holds the estimate for every candidate zig-zag plan, indexed
	// by start position, so callers can see the spread the choice was
	// made over.
	Costs []float64

	// dp is the executable plan this is the view of.
	dp *exec.DagPlan
}

// ExecStats reports an executed query: the plan that ran and what the
// execution layer measured running it.
type ExecStats struct {
	// Plan is the strategy that was executed.
	Plan QueryPlan
	// Stats is the execution's own report (exec.Stats): the actual size
	// of every relation entering a join step (Intermediates) and their sum
	// (Work) — the cost the planner tried to minimize — the exact
	// selectivity |ℓ(G)| of the query (Result), the segment-cache traffic
	// when the estimator has a cache (Config.CacheBytes; a whole-query hit
	// reports no intermediates and Work 0) and the work-stealing
	// scheduler's activity (Sched, all zero when no step ran in parallel).
	exec.Stats
	// Degraded is never set: ExecuteCtx answers a refused or killed query
	// with an error, never with its estimate, and a caller that answers
	// the estimate instead (internal/serve) marks that answer itself. The
	// field stays for the benchmark harness, which reads it.
	Degraded bool
}

// queryPlan is the QueryPlan view of a plan — the one rendering of what
// exec.Planner.Plan decided. A concrete path (a plan with per-start Costs)
// shows the winner of its candidate zig-zag plans with the cost of every
// start: the cheapest zig-zag plan, or — under Config.BushyPlans — the
// cheapest plan tree, which degenerates to the zig-zag winner whenever
// linear growth is estimated cheaper than every bushy split. A leaf is
// priced as the zig-zag plan it is even where the planner, seeing its
// whole segment cached, priced it free. Anything else is an RPQ's fold.
func queryPlan(dp *exec.DagPlan) QueryPlan {
	if dp.Costs == nil {
		return QueryPlan{Start: -1, Description: "rpq " + dp.Describe(), EstimatedCost: dp.Cost, dp: dp}
	}
	qp := QueryPlan{Start: dp.Tree.Start, Description: dp.Describe(), EstimatedCost: dp.Cost, Costs: dp.Costs, dp: dp}
	if dp.Tree.IsLeaf() {
		qp.EstimatedCost = dp.Costs[dp.Tree.Start]
	}
	return qp
}

// admissionBytesPerPair prices one projected vertex pair for the
// admission gate's size projection: a sparse row entry is a 4-byte id,
// doubled to absorb row headers and dense-promotion slack. Deliberately
// conservative — admission may overestimate and reject, never
// underestimate and then be caught anyway by the runtime budget check.
const admissionBytesPerPair = 8

// admit is the admission gate on the library's own budget: it rejects
// the query before any graph access when the projected peak relation
// size (the plan's estimated intermediate volume or the query's own
// estimated selectivity, whichever is larger, at admissionBytesPerPair)
// exceeds Config.MaxResultBytes.
func (e *Estimator) admit(plan QueryPlan, finalEst float64) error {
	if e.cfg.MaxResultBytes > 0 {
		proj := int64(math.Ceil(math.Max(plan.EstimatedCost, finalEst))) * admissionBytesPerPair
		if proj > e.cfg.MaxResultBytes {
			return fmt.Errorf("%w: projected relation size %d B exceeds MaxResultBytes %d B",
				ErrAdmissionDenied, proj, e.cfg.MaxResultBytes)
		}
	}
	return nil
}

// execute runs one compiled query against the estimator's (possibly nil)
// segment cache — the one path every execution takes: canceller,
// admission gate, Compile's plan, stats. It plans nothing: the plan that
// runs is the one Compile made against the cache as it was then. It runs
// on e's CSR, the graph Build froze and counted, so the cache, the exact
// answers and every execution describe one graph whatever the Graph it
// came from has since become. The canceller carries ctx into every
// kernel, and an already-dead ctx never touches the graph. A refusal or
// a kill is an error, with the plan beside it. Only the answer's counters
// go into ExecStats, so the executor is never asked to keep the result
// relation (exec.Options.KeepResult stays unset): it counts the final
// step where it can and releases what it had to build.
func (e *Estimator) execute(ctx context.Context, x *Expr) (ExecStats, error) {
	canc, release := exec.NewCancellerContext(ctx)
	defer release()
	if err := e.admit(x.plan, x.estimate); err != nil {
		return ExecStats{Plan: x.plan}, err
	}
	opt := exec.Options{
		DensityThreshold: e.cfg.DensityThreshold,
		Workers:          e.cfg.Workers,
		Cache:            e.cache,
		Cancel:           canc,
		MaxResultBytes:   e.cfg.MaxResultBytes,
		Pool:             e.pool,
	}
	_, st, err := exec.Run(e.csr, x.plan.dp, opt)
	if err != nil {
		return ExecStats{Plan: x.plan}, translateExecErr(err)
	}
	return ExecStats{Plan: x.plan, Stats: st}, nil
}
