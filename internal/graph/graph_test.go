package graph_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
	. "repro/internal/graph"
	"repro/internal/oracle"
)

func TestNewGraph(t *testing.T) {
	g := New(5, 3)
	if g.NumVertices() != 5 || g.NumLabels() != 3 || g.NumEdges() != 0 {
		t.Fatalf("unexpected sizes: %d/%d/%d", g.NumVertices(), g.NumLabels(), g.NumEdges())
	}
	if g.LabelName(0) != "1" || g.LabelName(2) != "3" {
		t.Fatal("default label names should be 1-based integers")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) should panic")
		}
	}()
	New(-1, 2)
}

func TestAddEdge(t *testing.T) {
	g := New(3, 2)
	if !g.AddEdge(0, 1, 2) {
		t.Fatal("first AddEdge should report new")
	}
	if g.AddEdge(0, 1, 2) {
		t.Fatal("duplicate AddEdge should report false")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	// Self-loop allowed.
	if !g.AddEdge(1, 0, 1) {
		t.Fatal("self-loop should be accepted")
	}
	// Same endpoints, different label is a distinct edge.
	if !g.AddEdge(0, 0, 2) {
		t.Fatal("same endpoints different label should be new")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, 2)
	for name, fn := range map[string]func(){
		"bad src":   func() { g.AddEdge(3, 0, 0) },
		"bad dst":   func() { g.AddEdge(0, 0, -1) },
		"bad label": func() { g.AddEdge(0, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLabelNames(t *testing.T) {
	g := New(2, 2)
	g.SetLabelName(0, "knows")
	if g.LabelName(0) != "knows" {
		t.Fatal("SetLabelName did not stick")
	}
	if g.LabelName(1) != "2" {
		t.Fatalf("default name of label 1 = %q, want \"2\"", g.LabelName(1))
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4, 2)
	g.AddEdge(3, 1, 0)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 0)
	g.AddEdge(2, 1, 3)
	es := g.Edges()
	want := []Edge{{0, 0, 0}, {0, 0, 1}, {2, 1, 3}, {3, 1, 0}}
	if len(es) != len(want) {
		t.Fatalf("Edges() len = %d", len(es))
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestLabelFrequencies(t *testing.T) {
	g := New(4, 3)
	g.AddEdge(0, 0, 1)
	g.AddEdge(1, 0, 2)
	g.AddEdge(2, 2, 3)
	freq := g.LabelFrequencies()
	if freq[0] != 2 || freq[1] != 0 || freq[2] != 1 {
		t.Fatalf("LabelFrequencies = %v", freq)
	}
}

func TestFreezeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := New(50, 4)
	type key struct{ s, l, d int }
	want := map[key]bool{}
	for i := 0; i < 300; i++ {
		s, l, d := rng.Intn(50), rng.Intn(4), rng.Intn(50)
		g.AddEdge(s, l, d)
		want[key{s, l, d}] = true
	}
	c := g.Freeze()
	if c.NumVertices() != 50 || c.NumLabels() != 4 || c.NumEdges() != len(want) {
		t.Fatalf("CSR sizes wrong: %d/%d/%d", c.NumVertices(), c.NumLabels(), c.NumEdges())
	}
	got := map[key]bool{}
	for l := 0; l < 4; l++ {
		for v := 0; v < 50; v++ {
			succ := c.Successors(v, l)
			for i, tgt := range succ {
				if i > 0 && succ[i-1] > tgt {
					t.Fatalf("successors of (%d,%d) not sorted: %v", v, l, succ)
				}
				got[key{v, l, int(tgt)}] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("CSR has %d edges, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing edge %v in CSR", k)
		}
	}
}

// TestThawRoundTrip pins Thaw as Freeze's inverse: the thawed builder has
// the CSR's sizes, names and edges, and freezing it again gives the same
// adjacency.
func TestThawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := New(30, 3)
	g.SetLabelName(2, "knows")
	for i := 0; i < 200; i++ {
		g.AddEdge(rng.Intn(30), rng.Intn(3), rng.Intn(30))
	}
	c := g.Freeze()
	th := c.Thaw()
	if th.NumVertices() != 30 || th.NumLabels() != 3 || th.NumEdges() != g.NumEdges() {
		t.Fatalf("thawed sizes %d/%d/%d, want 30/3/%d", th.NumVertices(), th.NumLabels(), th.NumEdges(), g.NumEdges())
	}
	if !slices.Equal(th.Edges(), g.Edges()) {
		t.Fatal("thawed edges differ from the builder's")
	}
	if th.LabelName(2) != "knows" {
		t.Fatalf("thawed label 2 = %q, want knows", th.LabelName(2))
	}
	// The thawed builder is a builder: an edge added to it and to the
	// original lands in both next freezes alike.
	if th.AddEdge(0, 0, 0) != g.AddEdge(0, 0, 0) {
		t.Fatal("thawed builder and its source disagree on a new edge")
	}
	c2, want := th.Freeze(), g.Freeze()
	for l := 0; l < 3; l++ {
		for v := 0; v < 30; v++ {
			if got, w := c2.Successors(v, l), want.Successors(v, l); !slices.Equal(got, w) {
				t.Fatalf("Successors(%d, %d) = %v after thaw, want %v", v, l, got, w)
			}
		}
	}
}

func TestFreezeEmptyGraph(t *testing.T) {
	c := New(3, 2).Freeze()
	if c.NumEdges() != 0 {
		t.Fatal("empty graph should freeze to empty CSR")
	}
	if len(c.Successors(0, 0)) != 0 {
		t.Fatal("no successors expected")
	}
}

func TestCSRLabelFrequencies(t *testing.T) {
	g := New(4, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(1, 0, 2)
	g.AddEdge(0, 1, 3)
	c := g.Freeze()
	freq := c.LabelFrequencies()
	if freq[0] != 2 || freq[1] != 1 {
		t.Fatalf("CSR LabelFrequencies = %v", freq)
	}
	if c.LabelName(1) != "2" {
		t.Fatal("CSR should preserve label names")
	}
}

// TestSuccessorSets pins the dense reference's successor sets, which it
// builds from the CSR on every call: set v holds Successors(v, l), and a
// vertex without successors has none.
func TestSuccessorSets(t *testing.T) {
	g := New(4, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 2)
	g.AddEdge(3, 0, 0)
	c := g.Freeze()
	tab := oracle.SuccessorSets(c, 0)
	if len(tab) != 4 || tab[0] == nil || tab[0].Count() != 2 || !tab[0].Contains(1) || !tab[0].Contains(2) {
		t.Fatalf("succ[0] wrong: %v", tab[0])
	}
	if tab[1] != nil || tab[2] != nil {
		t.Fatal("vertices without successors should have nil sets")
	}
	if tab[3] == nil || tab[3].Count() != 1 || !tab[3].Contains(0) {
		t.Fatal("succ[3] wrong")
	}
	if tab := oracle.SuccessorSets(c, 1); slices.ContainsFunc(tab, func(s *oracle.Set) bool { return s != nil }) {
		t.Fatal("label 1 has no edges, so no successor sets")
	}
}

// randomCSR freezes a random graph with up to m edges over n vertices and
// the given number of labels.
func randomCSR(rng *rand.Rand, n, labels, m int) *CSR {
	g := New(n, labels)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(labels), rng.Intn(n))
	}
	return g.Freeze()
}

// operandRow returns row v of a compose operand.
func operandRow(op bitset.CSROperand, v int) []int32 {
	return op.Targets[op.Offsets[v]:op.Offsets[v+1]]
}

// TestLabelOperandRows pins the forward operand to the graph: its universe,
// its non-empty row count, and every row v equal to Successors(v, l) — on a
// hand-built graph and on random ones, through Operands too.
func TestLabelOperandRows(t *testing.T) {
	g := New(4, 2)
	g.AddEdge(0, 0, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(3, 0, 0)
	c := g.Freeze()
	op := c.LabelOperand(0)
	if op.N != 4 || op.Sources != 2 || !slices.Equal(operandRow(op, 0), []int32{1, 2}) ||
		len(operandRow(op, 1)) != 0 || !slices.Equal(operandRow(op, 3), []int32{0}) {
		t.Fatalf("label 0 operand wrong: %+v", op)
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		n, labels := 1+rng.Intn(50), 1+rng.Intn(4)
		c := randomCSR(rng, n, labels, rng.Intn(5*n))
		ops := c.Operands()
		if len(ops) != labels {
			t.Fatalf("got %d operands for %d labels", len(ops), labels)
		}
		for l, op := range ops {
			sources := 0
			for v := 0; v < n; v++ {
				if !slices.Equal(operandRow(op, v), c.Successors(v, l)) {
					t.Fatalf("label %d row %d = %v, successors %v", l, v, operandRow(op, v), c.Successors(v, l))
				}
				if len(c.Successors(v, l)) > 0 {
					sources++
				}
			}
			if op.N != n || op.Sources != sources {
				t.Fatalf("label %d: universe %d, sources %d; want %d, %d", l, op.N, op.Sources, n, sources)
			}
		}
	}
}

// TestPredecessorOperandRows pins the reverse operand to a brute-force
// predecessor list: row v holds every u with v ∈ Successors(u, l),
// ascending, and Sources counts the vertices with one.
func TestPredecessorOperandRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n, labels := 1+rng.Intn(50), 1+rng.Intn(4)
		c := randomCSR(rng, n, labels, rng.Intn(5*n))
		for l := 0; l < labels; l++ {
			op := c.PredecessorOperand(l)
			sources := 0
			for v := 0; v < n; v++ {
				var want []int32
				for u := 0; u < n; u++ {
					if slices.Contains(c.Successors(u, l), int32(v)) {
						want = append(want, int32(u))
					}
				}
				if !slices.Equal(operandRow(op, v), want) {
					t.Fatalf("label %d row %d = %v, predecessors %v", l, v, operandRow(op, v), want)
				}
				if len(want) > 0 {
					sources++
				}
			}
			if op.N != n || op.Sources != sources {
				t.Fatalf("label %d: universe %d, sources %d; want %d, %d", l, op.N, op.Sources, n, sources)
			}
		}
	}
}

// TestOperandsAllocateNothing pins that an operand is a view of the CSR:
// LabelOperand, and PredecessorOperand once built, allocate nothing.
func TestOperandsAllocateNothing(t *testing.T) {
	c := randomCSR(rand.New(rand.NewSource(24)), 30, 2, 120)
	c.PredecessorOperand(1)
	if a := testing.AllocsPerRun(100, func() { c.LabelOperand(1) }); a != 0 {
		t.Fatalf("LabelOperand allocated %v times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.PredecessorOperand(1) }); a != 0 {
		t.Fatalf("warm PredecessorOperand allocated %v times per call", a)
	}
}

func TestEdgeRelation(t *testing.T) {
	g := New(4, 2)
	g.AddEdge(0, 1, 3)
	g.AddEdge(2, 1, 2)
	c := g.Freeze()
	r := oracle.EdgeRelation(c, 1)
	if r.Pairs() != 2 || !r.Contains(0, 3) || !r.Contains(2, 2) {
		t.Fatal("EdgeRelation wrong")
	}
	if oracle.EdgeRelation(c, 0).Pairs() != 0 {
		t.Fatal("label 0 relation should be empty")
	}
}

// TestLazyInitConcurrent makes the first PredecessorOperand call of every
// label from 16 goroutines at once. Run under -race this pins the sync.Once
// guard around the reverse CSR's build: every caller gets the one build's
// Offsets and Targets backing arrays.
func TestLazyInitConcurrent(t *testing.T) {
	c := randomCSR(rand.New(rand.NewSource(21)), 60, 4, 400)
	got := make([][]bitset.CSROperand, 16)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < 4; l++ {
				got[w] = append(got[w], c.PredecessorOperand(l))
			}
		}()
	}
	wg.Wait()
	for l := 0; l < 4; l++ {
		want := c.PredecessorOperand(l)
		for w := range got {
			op := got[w][l]
			if op.N != 60 || &op.Offsets[0] != &want.Offsets[0] || &op.Targets[0] != &want.Targets[0] {
				t.Fatalf("worker %d label %d: operand does not share the one reverse CSR", w, l)
			}
		}
	}
}
