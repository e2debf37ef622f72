// Package stats implements the evaluation metrics of the reproduction:
// the paper's relative error metric (Eq. 6) and q-error. A leaf utility of
// the layer map (graph → bitset → paths → exec → pathsel), consumed by
// internal/core's evaluator and internal/experiments.
package stats

import (
	"fmt"
	"math"
)

// Err computes the paper's estimation error metric (Eq. 6) for an
// estimate e of true selectivity f:
//
//	err = 0                       when e == f
//	err = (e − f) / max(e, f)     otherwise
//
// The result lies in (−1, 1): positive means over-estimation. Mean error
// *rate* aggregations use |Err|.
func Err(e, f float64) float64 {
	if e == f {
		return 0
	}
	m := math.Max(e, f)
	if m == 0 {
		// Both non-positive and unequal; fall back to the dominant
		// magnitude so the metric stays in (−1, 1).
		m = math.Max(math.Abs(e), math.Abs(f))
	}
	return (e - f) / m
}

// QError computes the q-error max(e/f, f/e), the standard cardinality-
// estimation quality metric, with the usual guard: zero values are lifted
// to one so exact zero matches score 1 (perfect).
func QError(e, f float64) float64 {
	if e < 0 || f < 0 {
		panic(fmt.Sprintf("stats: q-error of negative values (%v, %v)", e, f))
	}
	if e < 1 {
		e = 1
	}
	if f < 1 {
		f = 1
	}
	return math.Max(e/f, f/e)
}
