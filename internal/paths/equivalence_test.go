package paths_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/oracle"
	. "repro/internal/paths"
)

// randomGraph builds a random labeled graph from a packed parameter tuple,
// shared by the property test and the fuzz target.
func randomGraph(seed int64, vertices, labels, edges int) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(vertices, labels)
	for i := 0; i < edges; i++ {
		g.AddEdge(rng.Intn(vertices), rng.Intn(labels), rng.Intn(vertices))
	}
	return g.Freeze()
}

func assertCensusEqual(t *testing.T, ctx string, want, got *Census) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d != %d", ctx, got.Size(), want.Size())
	}
	for idx := int64(0); idx < want.Size(); idx++ {
		if got.AtCanonical(idx) != want.AtCanonical(idx) {
			t.Fatalf("%s: freq[%d] = %d, want %d (path %v)",
				ctx, idx, got.AtCanonical(idx), want.AtCanonical(idx),
				FromCanonicalIndex(idx, want.NumLabels(), want.K()))
		}
	}
}

// TestCensusHybridPropertyRandomGraphs is the bit-identity property test
// demanded by the engine contract: on random graphs across sizes, label
// counts, worker counts, density thresholds, and split granularities, the
// pooled work-stealing hybrid census must equal the sequential reference
// census entry for entry.
func TestCensusHybridPropertyRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		vertices := 2 + rng.Intn(120)
		labels := 1 + rng.Intn(5)
		edges := 1 + rng.Intn(6*vertices)
		k := 1 + rng.Intn(3)
		g := randomGraph(int64(trial), vertices, labels, edges)
		want := oracle.NewCensus(g, k)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, density := range []float64{0, 1e-9, 0.25, 1.0} {
				opt := CensusOptions{
					Workers:          workers,
					DensityThreshold: density,
					// Alternate split granularity so both the inline and
					// the stealable paths are exercised.
					SplitPairs: int64(1 + trial%2*256),
				}
				got := NewCensusHybrid(g, k, opt)
				assertCensusEqual(t,
					fmt.Sprintf("trial %d workers %d density %v", trial, workers, density),
					want, got)
			}
		}
	}
}

// TestCensusCountedLeavesMatchReference pins the counted deepest level
// against the reference census, which builds every relation: at k = 1
// (seeds only — no leaf step runs), k = 2 (every task's children are
// leaves) and k = 4 (leaves under inline and stolen subtrees alike), with
// every row sparse (DensityThreshold ≥ 1: the scatter accumulator alone)
// and with a threshold small enough that every non-empty row is dense
// (the dense-union accumulator), at workers 1–8.
func TestCensusCountedLeavesMatchReference(t *testing.T) {
	g := dataset.ErdosRenyi(90, 700, dataset.NewZipfLabels(3, 1.3), 5).Freeze()
	for _, k := range []int{1, 2, 4} {
		want := oracle.NewCensus(g, k)
		for _, density := range []float64{1, 1e-9} {
			for workers := 1; workers <= 8; workers++ {
				got := NewCensusHybrid(g, k, CensusOptions{Workers: workers, DensityThreshold: density, SplitPairs: int64(1 + workers%2*256)})
				assertCensusEqual(t, fmt.Sprintf("k %d density %v workers %d", k, density, workers), want, got)
			}
		}
	}
}

// TestCensusParallelSkewedLabels pins the load-imbalance case the
// work-stealing scheduler exists for: nearly every edge carries one label,
// so per-first-label sharding would serialize, and correctness must still
// hold with many more workers than labels.
func TestCensusParallelSkewedLabels(t *testing.T) {
	g := dataset.ErdosRenyi(120, 900, dataset.NewZipfLabels(4, 1.8), 7).Freeze()
	want := oracle.NewCensus(g, 3)
	for _, workers := range []int{1, 2, 4, 16} {
		got := NewCensusHybrid(g, 3, CensusOptions{Workers: workers})
		assertCensusEqual(t, "skewed workers", want, got)
	}
}

// TestCensusHybridTinySplit forces every non-leaf subtree through the
// deques (SplitPairs=1), maximizing steal traffic.
func TestCensusHybridTinySplit(t *testing.T) {
	g := dataset.ErdosRenyi(60, 400, dataset.UniformLabels{L: 3}, 11).Freeze()
	want := oracle.NewCensus(g, 3)
	got := NewCensusHybrid(g, 3, CensusOptions{Workers: 8, SplitPairs: 1})
	assertCensusEqual(t, "tiny split", want, got)
}

// TestCensusHybridEmptyGraph covers the no-task fast path.
func TestCensusHybridEmptyGraph(t *testing.T) {
	g := graph.New(5, 2).Freeze()
	got := NewCensusHybrid(g, 3, CensusOptions{Workers: 4})
	if censusTotal(got) != 0 {
		t.Fatalf("empty graph census total = %d", censusTotal(got))
	}
}

// FuzzCensusEquivalence fuzzes the graph shape and engine knobs, asserting
// hybrid ≡ sequential on every input.
func FuzzCensusEquivalence(f *testing.F) {
	f.Add(int64(1), 20, 2, 60, 2, 4, int64(8))
	f.Add(int64(2), 50, 3, 200, 3, 1, int64(1))
	f.Add(int64(3), 5, 1, 10, 2, 7, int64(300))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels, edges, k, workers int, split int64) {
		if vertices < 1 || vertices > 80 || labels < 1 || labels > 4 ||
			edges < 0 || edges > 400 || k < 1 || k > 3 ||
			workers < 1 || workers > 8 {
			t.Skip()
		}
		g := randomGraph(seed, vertices, labels, edges)
		want := oracle.NewCensus(g, k)
		got := NewCensusHybrid(g, k, CensusOptions{Workers: workers, SplitPairs: split})
		assertCensusEqual(t, "fuzz", want, got)
	})
}

// TestEvaluateHybridMatchesDense pins the hybrid Evaluate bit-identical to
// the retired dense evaluator across random graphs, path lengths, and
// density thresholds.
func TestEvaluateHybridMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		vertices := 2 + rng.Intn(120)
		labels := 1 + rng.Intn(5)
		edges := 1 + rng.Intn(6*vertices)
		g := randomGraph(int64(200+trial), vertices, labels, edges)
		p := make(Path, 1+rng.Intn(4))
		for i := range p {
			p[i] = rng.Intn(labels)
		}
		want := oracle.EvaluateDense(g, p)
		for _, density := range []float64{0, 1e-9, 0.25, 1.0} {
			got := EvaluateWithDensity(g, p, density)
			if !oracle.EqualRelation(got, want) {
				t.Fatalf("trial %d density %v: hybrid Evaluate(%v) differs from dense", trial, density, p)
			}
		}
		if Selectivity(g, p) != want.Pairs() {
			t.Fatalf("trial %d: Selectivity(%v) != dense pair count", trial, p)
		}
	}
}

// TestUnionSelectivityMatchesDense pins the hybrid union accumulation
// against the dense reference: evaluate each path densely, pour all pairs
// into one dense relation, and compare counts.
func TestUnionSelectivityMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		vertices := 2 + rng.Intn(80)
		labels := 1 + rng.Intn(4)
		g := randomGraph(int64(300+trial), vertices, labels, 1+rng.Intn(5*vertices))
		ps := make([]Path, 1+rng.Intn(5))
		for i := range ps {
			p := make(Path, 1+rng.Intn(3))
			for j := range p {
				p[j] = rng.Intn(labels)
			}
			ps[i] = p
		}
		acc := oracle.NewRelation(g.NumVertices())
		for _, p := range ps {
			oracle.EvaluateDense(g, p).ForEachRow(func(s int, targets *bitset.Set) bool {
				targets.ForEach(func(tt int) bool {
					acc.Add(s, tt)
					return true
				})
				return true
			})
		}
		if got, want := UnionSelectivity(g, ps), acc.Pairs(); got != want {
			t.Fatalf("trial %d: UnionSelectivity = %d, dense reference %d (paths %v)", trial, got, want, ps)
		}
	}
}

// FuzzEvaluateEquivalence fuzzes graph shape, path, and density threshold,
// asserting hybrid Evaluate ≡ dense on every input.
func FuzzEvaluateEquivalence(f *testing.F) {
	f.Add(int64(1), 20, 2, 60, uint16(0x3121), float64(0))
	f.Add(int64(2), 50, 3, 200, uint16(0x0002), float64(1))
	f.Add(int64(3), 5, 1, 10, uint16(0x1000), float64(1e-9))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels, edges int, pathBits uint16, density float64) {
		if vertices < 1 || vertices > 80 || labels < 1 || labels > 4 ||
			edges < 0 || edges > 400 || density < 0 || density > 1 {
			t.Skip()
		}
		g := randomGraph(seed, vertices, labels, edges)
		k := 1 + int(pathBits>>12)%4
		p := make(Path, k)
		for i := range p {
			p[i] = int(pathBits>>(4*i)) % labels
		}
		if !oracle.EqualRelation(EvaluateWithDensity(g, p, density), oracle.EvaluateDense(g, p)) {
			t.Fatalf("hybrid Evaluate(%v) differs from dense (density %v)", p, density)
		}
	})
}
