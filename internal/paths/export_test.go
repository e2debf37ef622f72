package paths

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// NewCensusSplit is NewCensusHybrid offering a subtree to the
// work-stealing deques once its prefix selectivity reaches split pairs
// (≤ 0 keeps the built-in threshold), so the tests can drive the inline
// and the stealable paths alike.
func NewCensusSplit(g *graph.CSR, k int, opt CensusOptions, split int64) *Census {
	if split <= 0 {
		split = splitPairs
	}
	c, err := newCensusHybrid(g, k, opt, split, nil)
	if err != nil {
		panic(err)
	}
	return c
}

// Parse parses the "a/b/c" notation produced by Key (1-based numeric
// labels) into a Path, validating labels against numLabels.
func Parse(s string, numLabels int) (Path, error) {
	if s == "" {
		return nil, fmt.Errorf("paths: empty path")
	}
	parts := strings.Split(s, "/")
	p := make(Path, len(parts))
	for i, part := range parts {
		var l int
		if _, err := fmt.Sscanf(part, "%d", &l); err != nil {
			return nil, fmt.Errorf("paths: bad label %q in %q", part, s)
		}
		if l < 1 || l > numLabels {
			return nil, fmt.Errorf("paths: label %d in %q out of range [1,%d]", l, s, numLabels)
		}
		p[i] = l - 1
	}
	return p, nil
}
