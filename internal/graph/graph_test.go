package graph_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

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
	if g.LabelByName("knows") != 0 {
		t.Fatal("LabelByName(knows) != 0")
	}
	if g.LabelByName("missing") != -1 {
		t.Fatal("LabelByName(missing) != -1")
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

func TestSuccessorSets(t *testing.T) {
	g := New(4, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 2)
	g.AddEdge(3, 0, 0)
	c := g.Freeze()
	tab := c.SuccessorSets(0)
	if tab[0] == nil || tab[0].Count() != 2 || !tab[0].Contains(1) || !tab[0].Contains(2) {
		t.Fatalf("succ[0] wrong: %v", tab[0])
	}
	if tab[1] != nil || tab[2] != nil {
		t.Fatal("vertices without successors should have nil sets")
	}
	if tab[3] == nil || !tab[3].Contains(0) {
		t.Fatal("succ[3] wrong")
	}
	// Cached: same slice on second call.
	if &c.SuccessorSets(0)[0] != &tab[0] {
		t.Fatal("SuccessorSets should be cached")
	}
}

func TestPredecessorSets(t *testing.T) {
	g := New(4, 2)
	g.AddEdge(0, 0, 2)
	g.AddEdge(1, 0, 2)
	g.AddEdge(3, 0, 0)
	c := g.Freeze()
	tab := c.PredecessorSets(0)
	if tab[2] == nil || tab[2].Count() != 2 || !tab[2].Contains(0) || !tab[2].Contains(1) {
		t.Fatalf("pred[2] wrong: %v", tab[2])
	}
	if tab[0] == nil || !tab[0].Contains(3) {
		t.Fatal("pred[0] wrong")
	}
	if tab[1] != nil || tab[3] != nil {
		t.Fatal("vertices without predecessors should have nil sets")
	}
	// Cached on second call.
	if &c.PredecessorSets(0)[0] != &tab[0] {
		t.Fatal("PredecessorSets should be cached")
	}
	// Predecessors must mirror successors exactly.
	for l := 0; l < 2; l++ {
		pred := c.PredecessorSets(l)
		for v := 0; v < 4; v++ {
			for _, tgt := range c.Successors(v, l) {
				if pred[tgt] == nil || !pred[tgt].Contains(v) {
					t.Fatalf("edge (%d,%d,%d) missing from predecessor sets", v, l, tgt)
				}
			}
		}
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

// TestLazyInitConcurrent hammers the lazily built successor/predecessor
// tables from many goroutines at once. Run under -race this pins the
// sync.Once guard that replaced the old "force construction up front"
// workaround in the parallel census.
func TestLazyInitConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := New(60, 4)
	for i := 0; i < 400; i++ {
		g.AddEdge(rng.Intn(60), rng.Intn(4), rng.Intn(60))
	}
	c := g.Freeze()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for l := 0; l < 4; l++ {
				succ := c.SuccessorSets(l)
				pred := c.PredecessorSets(l)
				op := c.LabelOperand(l)
				if len(succ) != 60 || len(pred) != 60 || op.N != 60 {
					t.Errorf("worker %d label %d: bad table sizes", w, l)
				}
			}
		}(w)
	}
	wg.Wait()
	// All goroutines must have observed the same cached tables.
	for l := 0; l < 4; l++ {
		if &c.SuccessorSets(l)[0] != &c.LabelOperand(l).Dense[0] {
			t.Fatalf("label %d: operand does not share the cached successor table", l)
		}
	}
}

// TestLabelOperandMatchesCSR checks the dual forms of an operand agree.
func TestLabelOperandMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := New(40, 3)
	for i := 0; i < 200; i++ {
		g.AddEdge(rng.Intn(40), rng.Intn(3), rng.Intn(40))
	}
	c := g.Freeze()
	ops := c.Operands(true)
	if len(ops) != 3 {
		t.Fatalf("got %d operands", len(ops))
	}
	for l, op := range ops {
		for v := 0; v < 40; v++ {
			ts := op.Targets[op.Offsets[v]:op.Offsets[v+1]]
			if len(ts) != len(c.Successors(v, l)) {
				t.Fatalf("label %d vertex %d: CSR degree mismatch", l, v)
			}
			d := op.Dense[v]
			if (d == nil) != (len(ts) == 0) {
				t.Fatalf("label %d vertex %d: dense row nil-ness disagrees", l, v)
			}
			for _, tgt := range ts {
				if !d.Contains(int(tgt)) {
					t.Fatalf("label %d: dense row missing target %d of %d", l, tgt, v)
				}
			}
		}
	}
}

func TestPredecessorCSRMirrorsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(60)
		labels := 1 + rng.Intn(3)
		g := New(n, labels)
		for i := 0; i < rng.Intn(4*n); i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(labels), rng.Intn(n))
		}
		c := g.Freeze()
		for l := 0; l < labels; l++ {
			op := c.PredecessorCSR(l)
			if op.N != n {
				t.Fatalf("operand universe %d != %d", op.N, n)
			}
			// Every reverse pair (v, u) must be a forward edge (u, l, v),
			// rows must be sorted, and the pair counts must match.
			total := 0
			for v := 0; v < n; v++ {
				row := op.Targets[op.Offsets[v]:op.Offsets[v+1]]
				for i, u := range row {
					if i > 0 && row[i-1] >= u {
						t.Fatalf("label %d: predecessor row %d not strictly ascending", l, v)
					}
					if !slices.Contains(c.Successors(int(u), l), int32(v)) {
						t.Fatalf("label %d: reverse pair (%d,%d) has no forward edge", l, v, u)
					}
				}
				total += len(row)
			}
			if total != len(c.LabelCSR(l).Targets) {
				t.Fatalf("label %d: reverse CSR has %d pairs, forward has %d", l, total, len(c.LabelCSR(l).Targets))
			}
		}
	}
}

func TestPredecessorOperandDenseAgrees(t *testing.T) {
	g := New(6, 2)
	g.AddEdge(0, 1, 3)
	g.AddEdge(2, 1, 3)
	g.AddEdge(5, 1, 0)
	c := g.Freeze()
	op := c.PredecessorOperand(1)
	if op.Dense == nil {
		t.Fatal("dual-form operand should carry dense predecessor sets")
	}
	for v := 0; v < 6; v++ {
		row := op.Targets[op.Offsets[v]:op.Offsets[v+1]]
		want := op.Dense[v]
		if want == nil {
			if len(row) != 0 {
				t.Fatalf("vertex %d: CSR row non-empty but dense row nil", v)
			}
			continue
		}
		if want.Count() != len(row) {
			t.Fatalf("vertex %d: dense count %d != CSR row length %d", v, want.Count(), len(row))
		}
		for _, u := range row {
			if !want.Contains(int(u)) {
				t.Fatalf("vertex %d: dense set missing predecessor %d", v, u)
			}
		}
	}
}

func TestPredecessorCSRConcurrent(t *testing.T) {
	g := New(40, 2)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		g.AddEdge(rng.Intn(40), rng.Intn(2), rng.Intn(40))
	}
	c := g.Freeze()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < 2; l++ {
				c.PredecessorCSR(l)
				c.PredecessorOperand(l)
			}
		}()
	}
	wg.Wait()
}
