package paths

import "repro/internal/graph"

// NewCensusSplit is NewCensusHybrid offering a subtree to the
// work-stealing deques once its prefix selectivity reaches split pairs
// (≤ 0 keeps the built-in threshold), so the tests can drive the inline
// and the stealable paths alike.
func NewCensusSplit(g *graph.CSR, k int, opt CensusOptions, split int64) *Census {
	if split <= 0 {
		split = splitPairs
	}
	c, err := newCensusHybrid(g, k, opt, split)
	if err != nil {
		panic(err)
	}
	return c
}
