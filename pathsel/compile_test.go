package pathsel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// The string forms of the Expr API, for tests that ask one-off
// questions: compile the pattern, then ask the handle.

func planQuery(e *Estimator, q string) (QueryPlan, error) {
	x, err := e.Compile(q)
	if err != nil {
		return QueryPlan{}, err
	}
	return x.Plan(), nil
}

func executeQuery(e *Estimator, q string) (ExecStats, error) {
	x, err := e.Compile(q)
	if err != nil {
		return ExecStats{}, err
	}
	return x.ExecuteCtx(context.Background())
}

func estimatePattern(e *Estimator, pattern string) (float64, error) {
	x, err := e.Compile(pattern)
	if err != nil {
		return 0, err
	}
	return x.Estimate(), nil
}

// compileAll compiles a workload, naming the first query that fails.
func compileAll(e *Estimator, queries []string) ([]*Expr, error) {
	xs := make([]*Expr, len(queries))
	for i, q := range queries {
		x, err := e.Compile(q)
		if err != nil {
			return nil, fmt.Errorf("batch query %d: %w", i, err)
		}
		xs[i] = x
	}
	return xs, nil
}

// batchResult is one query's outcome in a workload executeBatch ran.
type batchResult struct {
	Query string
	ExecStats
	Err error
}

// executeBatch compiles a workload, then runs every handle's ExecuteCtx
// under ctx on workers goroutines (≤ 1: one after another, in input
// order), each query writing its own result slot — a workload is
// concurrent executions on one estimator, as a server fans a batch out.
func executeBatch(ctx context.Context, e *Estimator, queries []string, workers int) ([]batchResult, error) {
	xs, err := compileAll(e, queries)
	if err != nil {
		return nil, err
	}
	res := make([]batchResult, len(xs))
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1) - 1); i < len(xs); i = int(next.Add(1) - 1) {
			st, err := xs[i].ExecuteCtx(ctx)
			res[i] = batchResult{Query: queries[i], ExecStats: st, Err: err}
		}
	}
	var wg sync.WaitGroup
	for range max(workers, 1) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return res, nil
}
