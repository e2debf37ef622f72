package exec

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/paths"
)

// TestExecutorsDegenerateGraphs runs every executor entry point — the
// dense reference, every zig-zag plan, and every bushy tree shape — on
// the degenerate graphs that historically break join loops: a graph with
// no edges at all, a single vertex with no edges, and a single vertex
// with self-loops on every label. Each hybrid execution runs at workers 1
// and 4, and everything must agree on an empty (or single-pair) result.
func TestExecutorsDegenerateGraphs(t *testing.T) {
	build := func(vertices, labels int, loops bool) *graph.CSR {
		g := graph.New(vertices, labels)
		if loops {
			for l := 0; l < labels; l++ {
				g.AddEdge(0, l, 0)
			}
		}
		return g.Freeze()
	}
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"empty-20v", build(20, 3, false)},
		{"single-vertex", build(1, 3, false)},
		{"single-vertex-loops", build(1, 3, true)},
	}
	for _, tc := range graphs {
		labels := tc.g.NumLabels()
		for k := 1; k <= 3; k++ {
			p := make(paths.Path, k)
			for i := range p {
				p[i] = i % labels
			}
			dref, dst := oracle.ExecuteDense(tc.g, p, oracle.Forward)
			dbwd, _ := oracle.ExecuteDense(tc.g, p, oracle.Backward)
			if !dbwd.Equal(dref) {
				t.Fatalf("%s k=%d: dense forward and backward disagree", tc.name, k)
			}
			for _, workers := range []int{1, 4} {
				opt := Options{Workers: workers}
				for s := 0; s < k; s++ {
					ctx := fmt.Sprintf("%s k=%d start=%d workers=%d", tc.name, k, s, workers)
					rel, st := runPlan(t, tc.g, p, s, opt)
					if !oracle.EqualRelation(rel, dref) || st.Result != dst.Result {
						t.Fatalf("%s: zig-zag diverged from dense", ctx)
					}
				}
				for ti, tree := range allTrees(0, k) {
					ctx := fmt.Sprintf("%s k=%d tree=%d workers=%d", tc.name, k, ti, workers)
					rel, st := runTree(t, tc.g, p, tree, opt)
					if !oracle.EqualRelation(rel, dref) || st.Result != dst.Result {
						t.Fatalf("%s: bushy diverged from dense", ctx)
					}
				}
			}
		}
	}
}
