// Package stats implements the evaluation metrics of the reproduction:
// the paper's relative error metric (Eq. 6), aggregate error rates,
// q-error, and basic summary statistics. A leaf utility of the layer map
// (graph → bitset → paths → exec → pathsel), consumed by internal/core's
// evaluator and internal/experiments.
package stats

import (
	"fmt"
	"math"
	"sort"
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

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes descriptive statistics. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: summarize empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	variance := sumSq/float64(len(xs)) - s.Mean*s.Mean
	if variance < 0 {
		variance = 0 // numeric noise
	}
	s.Std = math.Sqrt(variance)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample by linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
