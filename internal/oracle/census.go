package oracle

import (
	"fmt"

	"repro/internal/combinat"
	"repro/internal/graph"
	"repro/internal/paths"
)

// census is the frequency vector under construction, indexed by
// paths.CanonicalIndex.
type census struct {
	numLabels int
	k         int
	freq      []int64
	succ      [][]*Set // per label, SuccessorSets
}

// NewCensus computes the full selectivity census of g for paths of length
// 1…k by sequential trie DFS with relational composition — the simple
// allocating reference paths.NewCensusHybrid is pinned against. Empty
// prefixes prune their whole subtree (their extensions all have
// selectivity 0, which the dense frequency array already records).
func NewCensus(g *graph.CSR, k int) *paths.Census {
	if k < 1 {
		panic(fmt.Sprintf("oracle: census needs k ≥ 1, got %d", k))
	}
	c := &census{
		numLabels: g.NumLabels(),
		k:         k,
		freq:      make([]int64, combinat.GeometricSum(int64(g.NumLabels()), int64(k))),
		succ:      make([][]*Set, g.NumLabels()),
	}
	for l := range c.succ {
		c.succ[l] = SuccessorSets(g, l)
	}
	p := make(paths.Path, 0, k)
	for l := 0; l < g.NumLabels(); l++ {
		rel := EdgeRelation(g, l)
		c.censusDFS(append(p, l), rel)
	}
	return paths.FromFrequencies(c.numLabels, c.k, c.freq)
}

func (c *census) censusDFS(p paths.Path, rel *Relation) {
	n := rel.Pairs()
	c.freq[paths.CanonicalIndex(p, c.numLabels, c.k)] = n
	if len(p) == c.k || n == 0 {
		return
	}
	for l := 0; l < c.numLabels; l++ {
		c.censusDFS(append(p, l), rel.Compose(c.succ[l]))
	}
}
