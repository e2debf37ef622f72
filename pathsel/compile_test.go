package pathsel

import (
	"context"
	"fmt"
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

// executeBatch compiles every query before anything executes, so a
// malformed workload fails with no partial results.
func executeBatch(e *Estimator, queries []string, opt BatchOptions) (*BatchResult, error) {
	xs, err := compileAll(e, queries)
	if err != nil {
		return nil, err
	}
	return e.ExecuteExprBatchCtx(context.Background(), xs, opt)
}
