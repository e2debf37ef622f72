package pathsel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestEstimatorRunsOnTheGraphItWasBuiltFrom pins an Estimator as a
// snapshot: an edge added to its Graph after Build changes neither what
// its compiled queries execute on, with a cache or without, nor its
// census — they all answer the build-time count — while a fresh Build on
// the mutated Graph sees the new edge.
func TestEstimatorRunsOnTheGraphItWasBuiltFrom(t *testing.T) {
	g := NewGraph(4, []string{"a", "b"})
	for _, e := range []struct {
		src   int
		label string
		dst   int
	}{{0, "a", 1}, {1, "b", 2}} {
		if _, err := g.AddEdge(e.src, e.label, e.dst); err != nil {
			t.Fatal(err)
		}
	}
	build := func(cacheBytes int64) *Estimator {
		t.Helper()
		est, err := Build(g, Config{MaxPathLength: 2, Buckets: 8, CacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	// run compiles and executes a/b on est, and reads its census beside it.
	run := func(est *Estimator) (executed, census int64) {
		t.Helper()
		x, err := est.Compile("a/b")
		if err != nil {
			t.Fatal(err)
		}
		st, err := x.ExecuteCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if census, err = est.TrueSelectivity("a/b"); err != nil {
			t.Fatal(err)
		}
		return st.Result, census
	}
	ests := map[string]*Estimator{"cached": build(1 << 20), "uncached": build(0)}
	for name, est := range ests {
		if ex, ce := run(est); ex != 1 || ce != 1 {
			t.Fatalf("%s before AddEdge: executed %d, census %d, want 1 and 1", name, ex, ce)
		}
	}
	if added, err := g.AddEdge(3, "a", 1); err != nil || !added {
		t.Fatalf("AddEdge(3, a, 1) = %v, %v; want a new edge", added, err)
	}
	for name, est := range ests {
		if ex, ce := run(est); ex != 1 || ce != 1 {
			t.Fatalf("%s after AddEdge: executed %d, census %d, want the build-time 1 and 1", name, ex, ce)
		}
	}
	if got, err := g.TrueSelectivity("a/b"); err != nil || got != 2 {
		t.Fatalf("Graph.TrueSelectivity after AddEdge = %d, %v; want 2", got, err)
	}
	if ex, ce := run(build(0)); ex != 2 || ce != 2 {
		t.Fatalf("fresh Build after AddEdge: executed %d, census %d, want 2 and 2", ex, ce)
	}
}

// edgeListOf is the reference edge-list writer over a builder: the header,
// then the builder's Edges(), sorted by (label, src, dst). A frozen Graph's
// WriteEdgeList must reproduce its bytes.
func edgeListOf(g *graph.Graph) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%% directed labeled graph: %d vertices, %d labels, %d edges\n",
		g.NumVertices(), g.NumLabels(), g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(&buf, "%d %d %s\n", e.Src+1, e.Dst+1, g.LabelName(e.Label))
	}
	return buf.Bytes()
}

// TestFrozenGraphContract pins a Graph's two forms: freezing drops the
// builder and changes nothing a caller reads; an AddEdge on a frozen Graph
// thaws it with AddEdge's usual contract, and the next freeze is the CSR
// of a Graph built from scratch with the same edges; a refused AddEdge
// leaves a frozen Graph frozen.
func TestFrozenGraphContract(t *testing.T) {
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(38))
	type edge struct{ src, l, dst int }
	var edges []edge
	for i := 0; i < 120; i++ {
		edges = append(edges, edge{rng.Intn(25), rng.Intn(len(labels)), rng.Intn(25)})
	}
	fromScratch := func(es []edge) *Graph {
		t.Helper()
		g := NewGraph(25, labels)
		for _, e := range es {
			if _, err := g.AddEdge(e.src, labels[e.l], e.dst); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}

	g := fromScratch(edges)
	if g.g == nil || g.frozen != nil {
		t.Fatal("a Graph under construction should hold its builder only")
	}
	nv, ne, ls, want := g.NumVertices(), g.NumEdges(), g.Labels(), edgeListOf(g.g)
	if _, err := Build(g, Config{MaxPathLength: 2, Buckets: 8}); err != nil {
		t.Fatal(err)
	}
	if g.g != nil || g.frozen == nil {
		t.Fatal("after Build the Graph should hold its CSR only")
	}
	if g.NumVertices() != nv || g.NumEdges() != ne || !slices.Equal(g.Labels(), ls) {
		t.Fatalf("frozen sizes %d/%d %v, want %d/%d %v", g.NumVertices(), g.NumEdges(), g.Labels(), nv, ne, ls)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frozen WriteEdgeList differs from the builder's:\n%s\nwant\n%s", buf.Bytes(), want)
	}

	// A refused edge leaves the Graph frozen, with the sentinels it always had.
	if _, err := g.AddEdge(0, "zz", 1); !errors.Is(err, ErrUnknownLabel) {
		t.Fatalf("unknown label on a frozen Graph: err = %v, want ErrUnknownLabel", err)
	}
	if _, err := g.AddEdge(0, "a", 25); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("vertex out of range on a frozen Graph: err = %v, want ErrVertexRange", err)
	}
	if g.g != nil || g.frozen == nil {
		t.Fatal("a refused AddEdge thawed the Graph")
	}

	// A duplicate first: it thaws, and reports the edge as already there.
	e0 := edges[0]
	if added, err := g.AddEdge(e0.src, labels[e0.l], e0.dst); err != nil || added {
		t.Fatalf("duplicate AddEdge on a frozen Graph = %v, %v; want false, nil", added, err)
	}
	if g.g == nil || g.frozen != nil {
		t.Fatal("AddEdge on a frozen Graph should thaw it to its builder only")
	}
	if g.NumEdges() != ne {
		t.Fatalf("NumEdges after a duplicate = %d, want %d", g.NumEdges(), ne)
	}
	fresh := edge{24, 2, 24}
	if slices.Contains(edges, fresh) {
		t.Fatal("test edge is not new")
	}
	if added, err := g.AddEdge(fresh.src, labels[fresh.l], fresh.dst); err != nil || !added {
		t.Fatalf("new AddEdge on a thawed Graph = %v, %v; want true, nil", added, err)
	}
	if added, _ := g.AddEdge(fresh.src, labels[fresh.l], fresh.dst); added {
		t.Fatal("repeated AddEdge reported a new edge")
	}
	if g.NumEdges() != ne+1 {
		t.Fatalf("NumEdges after a new edge = %d, want %d", g.NumEdges(), ne+1)
	}

	got, ref := g.csr(), fromScratch(append(edges, fresh)).csr()
	if got.NumEdges() != ref.NumEdges() {
		t.Fatalf("refrozen NumEdges = %d, want %d", got.NumEdges(), ref.NumEdges())
	}
	for l := range labels {
		for v := 0; v < 25; v++ {
			if a, b := got.Successors(v, l), ref.Successors(v, l); !slices.Equal(a, b) {
				t.Fatalf("Successors(%d, %d) = %v after thaw and refreeze, want %v", v, l, a, b)
			}
		}
	}
}
