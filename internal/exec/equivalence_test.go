package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/paths"
)

// randomGraph builds a random labeled graph from a packed parameter tuple,
// shared by the property test and the fuzz target (mirrors the census
// equivalence harness in internal/paths).
func randomGraph(seed int64, vertices, labels, edges int) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(vertices, labels)
	for i := 0; i < edges; i++ {
		g.AddEdge(rng.Intn(vertices), rng.Intn(labels), rng.Intn(vertices))
	}
	return g.Freeze()
}

// assertPlanMatchesDense pins one hybrid plan execution bit-identical to
// the legacy dense reference: same pairs, same result count, and — for the
// endpoint plans — the same intermediate sizes step for step.
func assertPlanMatchesDense(t *testing.T, ctx string, g *graph.CSR, p paths.Path, density float64) {
	t.Helper()
	dfwd, dfst := oracle.ExecuteDense(g, p, oracle.Forward)
	dbwd, dbst := oracle.ExecuteDense(g, p, oracle.Backward)
	for s := 0; s < len(p); s++ {
		rel, st := runPlan(t, g, p, s, Options{DensityThreshold: density})
		if !oracle.EqualRelation(rel, dfwd) {
			t.Fatalf("%s: path %v start %d: hybrid pairs differ from dense reference", ctx, p, s)
		}
		if st.Result != dfst.Result {
			t.Fatalf("%s: path %v start %d: result %d != dense %d", ctx, p, s, st.Result, dfst.Result)
		}
		var want []int64
		switch s {
		case 0:
			want = dfst.Intermediates
		case len(p) - 1:
			want = dbst.Intermediates
		default:
			continue // interior starts have no dense counterpart to pin against
		}
		if len(st.Intermediates) != len(want) {
			t.Fatalf("%s: path %v start %d: %d intermediates, dense has %d",
				ctx, p, s, len(st.Intermediates), len(want))
		}
		for i := range want {
			if st.Intermediates[i] != want[i] {
				t.Fatalf("%s: path %v start %d: intermediate[%d] = %d, dense %d",
					ctx, p, s, i, st.Intermediates[i], want[i])
			}
		}
	}
	if !dbwd.Equal(dfwd) {
		t.Fatalf("%s: dense reference disagrees with itself on %v", ctx, p)
	}
}

// TestExecuteHybridPropertyRandomGraphs is the executor's bit-identity
// property test: on random graphs across sizes, label counts, path
// lengths, density thresholds, and every zig-zag start, Run must
// produce exactly the pairs of the retired dense executor.
func TestExecuteHybridPropertyRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		vertices := 2 + rng.Intn(120)
		labels := 1 + rng.Intn(5)
		edges := 1 + rng.Intn(6*vertices)
		g := randomGraph(int64(trial), vertices, labels, edges)
		for _, density := range []float64{0, 1e-9, 0.25, 1.0} {
			n := 1 + rng.Intn(4)
			p := make(paths.Path, n)
			for i := range p {
				p[i] = rng.Intn(labels)
			}
			assertPlanMatchesDense(t,
				fmt.Sprintf("trial %d density %v", trial, density), g, p, density)
		}
	}
}

// FuzzExecEquivalence fuzzes the graph shape, path, plan start, and
// density threshold, asserting hybrid ≡ dense on every input.
func FuzzExecEquivalence(f *testing.F) {
	f.Add(int64(1), 20, 2, 60, uint16(0x1234), 0, float64(0))
	f.Add(int64(2), 50, 3, 200, uint16(0x0042), 1, float64(1))
	f.Add(int64(3), 5, 1, 10, uint16(0x0000), 0, float64(1e-9))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels, edges int, pathBits uint16, start int, density float64) {
		if vertices < 1 || vertices > 80 || labels < 1 || labels > 4 ||
			edges < 0 || edges > 400 || density < 0 || density > 1 {
			t.Skip()
		}
		g := randomGraph(seed, vertices, labels, edges)
		// Decode up to 4 labels from pathBits, 4 bits each.
		k := 1 + int(pathBits>>12)%4
		p := make(paths.Path, k)
		for i := range p {
			p[i] = int(pathBits>>(4*i)) % labels
		}
		if start < 0 || start >= k {
			t.Skip()
		}
		dref, dst := oracle.ExecuteDense(g, p, oracle.Forward)
		rel, st := runPlan(t, g, p, start, Options{DensityThreshold: density})
		if !oracle.EqualRelation(rel, dref) {
			t.Fatalf("path %v start %d: hybrid differs from dense", p, start)
		}
		if st.Result != dst.Result {
			t.Fatalf("path %v start %d: result %d != dense %d", p, start, st.Result, dst.Result)
		}
	})
}
