package paths

import (
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// ApproxSelectivity estimates f(ℓ) by evaluating the path from a uniform
// sample of candidate source vertices (those with at least one out-edge on
// the path's first label) and scaling the distinct-pair count by the
// inverse sampling fraction. With fraction ≥ 1 it returns the exact value.
//
// This source-sampling estimator is a substrate for graphs too large for a
// full census (the paper's experiments are all exact; this is the scale
// escape hatch).
func ApproxSelectivity(g *graph.CSR, p Path, fraction float64, seed int64) int64 {
	if len(p) == 0 {
		panic("paths: approx selectivity of empty path")
	}
	if fraction <= 0 {
		panic(fmt.Sprintf("paths: non-positive sampling fraction %v", fraction))
	}
	if fraction >= 1 {
		return Selectivity(g, p)
	}
	var candidates []int
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(v, p[0]) > 0 {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		return 0
	}
	sampleSize := int(float64(len(candidates)) * fraction)
	if sampleSize < 1 {
		sampleSize = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(candidates))

	rel := bitset.NewRelation(g.NumVertices())
	for _, i := range perm[:sampleSize] {
		v := candidates[i]
		for _, t := range g.Successors(v, p[0]) {
			rel.Add(v, int(t))
		}
	}
	for _, l := range p[1:] {
		rel = rel.Compose(g.SuccessorSets(l))
	}
	scaled := float64(rel.Pairs()) * float64(len(candidates)) / float64(sampleSize)
	return int64(scaled + 0.5)
}
