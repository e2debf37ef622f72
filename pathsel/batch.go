package pathsel

import (
	"context"
	"fmt"

	"repro/internal/relcache"
	"repro/internal/sched"
)

// DefaultCacheBytes is a segment-relation cache budget that suits the
// repository's datasets (64 MiB) — what cmd/pathserve passes as
// Config.CacheBytes unless told otherwise.
const DefaultCacheBytes = relcache.DefaultMaxBytes

// BatchOptions tunes one batch execution. A batch executes every query
// it is given; a caller that answers some by their estimate instead
// leaves them out of it.
type BatchOptions struct {
	// Workers is the most queries executed concurrently: each query is
	// one task on a work-stealing scheduler (internal/sched) of Workers
	// workers, which starts no more of them than the batch has queries
	// (≤ 0 or 1 runs the batch one query at a time, in input order).
	// Per-query results are bit-identical at every setting — concurrent
	// queries share only the estimator's thread-safe segment cache (when
	// it has one), and adopting a cached relation is indistinguishable
	// from recomputing it — so this is a throughput knob, not a semantic
	// one. When Workers > 1, each query's own join steps run
	// single-threaded (the batch already saturates the cores with whole
	// queries); at Workers ≤ 1 each query parallelizes its join steps
	// across Config.Workers as a single execution does.
	Workers int
}

// CacheStats reports a segment-relation cache's counters: cumulative
// traffic (hits, misses, puts, evictions, rejected oversize entries) and
// current occupancy (entries, bytes, budget).
type CacheStats struct {
	Hits, Misses, Puts, Evictions, Rejected uint64
	Entries                                 int
	Bytes, MaxBytes                         int64
	// Shards is the cache's shard count; LockWaitNs is the cumulative
	// time callers spent blocked on shard locks (zero when uncontended —
	// the read-mostly locking means warm concurrent readers should keep
	// it near zero, which is exactly what it exists to verify).
	Shards     int
	LockWaitNs int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any traffic.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// BatchQueryResult is one query's outcome within a batch.
type BatchQueryResult struct {
	// Query is the pattern of the workload entry this result answers.
	Query string
	// ExecStats is exactly what Expr.ExecuteCtx would report, including the
	// query's own CacheHits/CacheMisses against the shared cache.
	ExecStats
	// Err is this query's execution outcome: nil on success (including a
	// degraded answer — see ExecStats.Degraded), or the typed cause of a
	// per-query kill (ErrDeadlineExceeded, ErrBudgetExceeded,
	// ErrAdmissionDenied, ErrCancelled, ErrExecutionFailed). A per-query
	// failure never aborts the rest of the batch; batch-wide abort is the
	// caller's context's job.
	Err error
}

// BatchResult is a whole workload's outcome.
type BatchResult struct {
	// Results holds one entry per input query, in input order.
	Results []BatchQueryResult
}

// CacheStats exposes the estimator's persistent segment cache counters
// (Config.CacheBytes). The second return is false when the estimator has
// no persistent cache.
func (e *Estimator) CacheStats() (CacheStats, bool) {
	if e.cache == nil {
		return CacheStats{}, false
	}
	st := e.cache.Stats()
	return CacheStats{
		Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
		Evictions: st.Evictions, Rejected: st.Rejected,
		Entries: st.Entries, Bytes: st.Bytes, MaxBytes: st.MaxBytes,
		Shards: st.Shards, LockWaitNs: st.LockWaitNs,
	}, true
}

// ExecuteExprBatchCtx executes a whole workload of compiled queries: N
// Expr.ExecuteCtx calls, up to BatchOptions.Workers at a time, on
// the estimator's segment-relation cache (Config.CacheBytes) — so with a
// cache, label subsequences that recur across the workload are
// materialized once and adopted everywhere else, in this batch and every
// later execution; without one, every query computes its own. A serving
// layer compiles its query set once and hands the same handles to every
// batch, so nothing is reparsed or re-validated per round.
// Every Expr must have been compiled by this estimator; a nil or foreign
// handle fails the whole batch before anything executes.
//
// Per-query results are bit-identical to Expr.ExecuteCtx at every
// BatchOptions.Workers setting and any cache state — caching and
// concurrency affect only throughput and the per-query
// CacheHits/CacheMisses accounting. Each query runs the plan it was
// compiled with: with Config.BushyPlans set, plan *choice* is cache-aware
// at Compile (segments cached then are free to build), so a handle
// compiled warm may carry a different — cheaper — plan than one compiled
// cold; the results stay identical because every plan computes the same
// relation.
//
// Cancelling ctx stops the batch promptly: in-flight queries are killed
// through the same cooperative cancellation path as Expr.ExecuteCtx, no
// further query starts executing, and every unexecuted entry comes back
// with Err set to ErrCancelled (or ErrDeadlineExceeded, when ctx died of
// a deadline) — the returned BatchResult is complete either way, with
// per-entry Err recording each query's fate. Config.QueryTimeout
// additionally bounds each query individually, and under
// Config.DegradeToEstimate killed or rejected queries degrade to
// histogram answers instead of carrying an Err. A panic inside a query's
// execution is contained there and fails that entry alone
// (ErrExecutionFailed); one that escapes it is contained by the batch's
// scheduler and fails the whole batch, with no BatchResult, as
// ErrExecutionFailed wrapping the *sched.PanicError.
func (e *Estimator) ExecuteExprBatchCtx(ctx context.Context, exprs []*Expr, opt BatchOptions) (*BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for i, x := range exprs {
		switch {
		case x == nil:
			return nil, fmt.Errorf("pathsel: batch query %d: %w: nil compiled query", i, ErrBadPattern)
		case x.est != e:
			return nil, fmt.Errorf("pathsel: batch query %d: %w: compiled by a different estimator", i, ErrBadPattern)
		}
	}

	res := &BatchResult{Results: make([]BatchQueryResult, len(exprs))}
	workers, queryWorkers := max(opt.Workers, 1), e.cfg.Workers
	if workers > 1 {
		queryWorkers = 1
	}
	// One task per query, each writing only its own result slot. Seeded
	// last to first, so every worker pops its share in input order — at
	// one worker, the whole batch.
	s := sched.New(workers, func(_ int, i int) {
		// A dead batch context stops issuing work: remaining entries are
		// marked with the batch's abort cause without touching the graph.
		if err := ctx.Err(); err != nil {
			res.Results[i] = BatchQueryResult{Query: exprs[i].pattern, Err: translateCtxErr(err)}
			return
		}
		st, err := e.execute(ctx, exprs[i], queryWorkers)
		res.Results[i] = BatchQueryResult{Query: exprs[i].pattern, ExecStats: st, Err: err}
	})
	for i := len(exprs) - 1; i >= 0; i-- {
		s.Spawn(i, i)
	}
	if err := s.Drain(); err != nil {
		return nil, translateExecErr(err)
	}
	return res, nil
}
