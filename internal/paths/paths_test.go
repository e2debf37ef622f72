package paths_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/combinat"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/oracle"
	. "repro/internal/paths"
)

func TestPathStringAndKey(t *testing.T) {
	g := graph.New(2, 3)
	g.SetLabelName(0, "a")
	g.SetLabelName(2, "c")
	p := Path{0, 2, 0}
	if got := p.String(g); got != "a/c/a" {
		t.Fatalf("String = %q", got)
	}
	if got := p.Key(); got != "1/3/1" {
		t.Fatalf("Key = %q", got)
	}
}

func TestPathCloneEqual(t *testing.T) {
	p := Path{1, 2}
	c := p.Clone()
	if !p.Equal(c) {
		t.Fatal("clone should be equal")
	}
	c[0] = 9
	if p[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if p.Equal(Path{1}) || p.Equal(Path{1, 3}) {
		t.Fatal("Equal false positives")
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("1/3/2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(Path{0, 2, 1}) {
		t.Fatalf("Parse = %v", p)
	}
	for _, bad := range []string{"", "0/1", "4", "x/y", "1//2"} {
		if _, err := Parse(bad, 3); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(5)
		p := make(Path, n)
		for i := range p {
			p[i] = rng.Intn(6)
		}
		q, err := Parse(p.Key(), 6)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(q) {
			t.Fatalf("round trip %v != %v", p, q)
		}
	}
}

func TestCanonicalIndexOrder(t *testing.T) {
	// Over 3 labels, k=2, the canonical order is: 1,2,3,1/1,1/2,…,3/3.
	want := []string{"1", "2", "3", "1/1", "1/2", "1/3", "2/1", "2/2", "2/3", "3/1", "3/2", "3/3"}
	for i, key := range want {
		p, err := Parse(key, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := CanonicalIndex(p, 3, 2); got != int64(i) {
			t.Errorf("CanonicalIndex(%s) = %d, want %d", key, got, i)
		}
		back := FromCanonicalIndex(int64(i), 3, 2)
		if !back.Equal(p) {
			t.Errorf("FromCanonicalIndex(%d) = %v, want %s", i, back.Key(), key)
		}
	}
}

func TestCanonicalIndexRoundTripExhaustive(t *testing.T) {
	numLabels, k := 4, 3
	size := combinat.GeometricSum(int64(numLabels), int64(k))
	for idx := int64(0); idx < size; idx++ {
		p := FromCanonicalIndex(idx, numLabels, k)
		if got := CanonicalIndex(p, numLabels, k); got != idx {
			t.Fatalf("round trip failed at %d: path %v → %d", idx, p, got)
		}
	}
}

func TestCanonicalIndexPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":     func() { CanonicalIndex(Path{}, 3, 2) },
		"too long":  func() { CanonicalIndex(Path{0, 1, 2}, 3, 2) },
		"bad label": func() { CanonicalIndex(Path{3}, 3, 2) },
		"neg idx":   func() { FromCanonicalIndex(-1, 3, 2) },
		"big idx":   func() { FromCanonicalIndex(12, 3, 2) },
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

// lineGraph builds 0 --l0--> 1 --l1--> 2 --l2--> 3 ... with given labels.
func lineGraph(labels []int, numLabels int) *graph.CSR {
	g := graph.New(len(labels)+1, numLabels)
	for i, l := range labels {
		g.AddEdge(i, l, i+1)
	}
	return g.Freeze()
}

func TestEvaluateLine(t *testing.T) {
	// 0 -a-> 1 -b-> 2: path a/b connects exactly (0,2).
	g := lineGraph([]int{0, 1}, 2)
	rel := Evaluate(g, Path{0, 1})
	if rel.Pairs() != 1 || !rel.Contains(0, 2) {
		t.Fatalf("a/b evaluation wrong: %d pairs", rel.Pairs())
	}
	if Selectivity(g, Path{1, 0}) != 0 {
		t.Fatal("b/a should be empty")
	}
	if Selectivity(g, Path{0}) != 1 {
		t.Fatal("single-label selectivity wrong")
	}
}

func TestEvaluateDistinctPairs(t *testing.T) {
	// Diamond: 0-a->1, 0-a->2, 1-b->3, 2-b->3. a/b yields ONE pair (0,3).
	g := graph.New(4, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 2)
	g.AddEdge(1, 1, 3)
	g.AddEdge(2, 1, 3)
	c := g.Freeze()
	if got := Selectivity(c, Path{0, 1}); got != 1 {
		t.Fatalf("diamond a/b selectivity = %d, want 1 (distinct pairs)", got)
	}
}

func TestEvaluateCycle(t *testing.T) {
	// 0-a->1-a->0: a/a connects (0,0) and (1,1); a/a/a = (0,1),(1,0), etc.
	g := graph.New(2, 1)
	g.AddEdge(0, 0, 1)
	g.AddEdge(1, 0, 0)
	c := g.Freeze()
	if got := Selectivity(c, Path{0}); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
	if got := Selectivity(c, Path{0, 0}); got != 2 {
		t.Fatalf("a/a = %d, want 2", got)
	}
	if got := Selectivity(c, Path{0, 0, 0}); got != 2 {
		t.Fatalf("a/a/a = %d, want 2", got)
	}
}

func TestEvaluateEmptyPathPanics(t *testing.T) {
	g := lineGraph([]int{0}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("empty path should panic")
		}
	}()
	Evaluate(g, Path{})
}

// bruteForceSelectivity enumerates all paths explicitly via DFS over
// vertices — the reference for the bit-parallel engine.
func bruteForceSelectivity(g *graph.CSR, p Path) int64 {
	pairs := map[[2]int]bool{}
	var walk func(v, depth int, start int)
	walk = func(v, depth, start int) {
		if depth == len(p) {
			pairs[[2]int{start, v}] = true
			return
		}
		for _, t := range g.Successors(v, p[depth]) {
			walk(int(t), depth+1, start)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		walk(v, 0, v)
	}
	return int64(len(pairs))
}

func TestSelectivityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(25)
		labels := 2 + rng.Intn(3)
		g := graph.New(n, labels)
		for i := 0; i < n*3; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(labels), rng.Intn(n))
		}
		c := g.Freeze()
		for pl := 1; pl <= 4; pl++ {
			p := make(Path, pl)
			for i := range p {
				p[i] = rng.Intn(labels)
			}
			got := Selectivity(c, p)
			want := bruteForceSelectivity(c, p)
			if got != want {
				t.Fatalf("trial %d path %v: engine %d, brute force %d", trial, p, got, want)
			}
		}
	}
}

func TestUnionSelectivity(t *testing.T) {
	// 0-a->1, 0-b->1: union of {a} and {b} is one distinct pair.
	g := graph.New(2, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 1, 1)
	c := g.Freeze()
	if got := UnionSelectivity(c, []Path{{0}, {1}}); got != 1 {
		t.Fatalf("union = %d, want 1 (distinct pairs)", got)
	}
	if got := UnionSelectivity(c, []Path{{0}}); got != 1 {
		t.Fatalf("singleton union = %d, want 1", got)
	}
	// Disjoint unions add up.
	g2 := graph.New(4, 2)
	g2.AddEdge(0, 0, 1)
	g2.AddEdge(2, 1, 3)
	if got := UnionSelectivity(g2.Freeze(), []Path{{0}, {1}}); got != 2 {
		t.Fatalf("disjoint union = %d, want 2", got)
	}
}

func TestUnionSelectivityEmptyPanics(t *testing.T) {
	g := lineGraph([]int{0}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("empty union should panic")
		}
	}()
	UnionSelectivity(g, nil)
}

func TestCensusMatchesDirectEvaluation(t *testing.T) {
	g := dataset.ErdosRenyi(60, 300, dataset.UniformLabels{L: 3}, 9).Freeze()
	k := 3
	census := oracle.NewCensus(g, k)
	if census.NumLabels() != 3 || census.K() != 3 {
		t.Fatal("census metadata wrong")
	}
	if census.Size() != combinat.GeometricSum(3, 3) {
		t.Fatalf("census size = %d", census.Size())
	}
	census.ForEach(func(p Path, f int64) bool {
		if want := Selectivity(g, p); f != want {
			t.Fatalf("census f(%s) = %d, direct = %d", p.Key(), f, want)
		}
		return true
	})
}

func TestCensusPruningCorrect(t *testing.T) {
	// A graph where label 1 never occurs: every path containing it is 0,
	// and the subtree must be pruned but still report zeros.
	g := graph.New(4, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(1, 0, 2)
	c := oracle.NewCensus(g.Freeze(), 3)
	if c.Selectivity(Path{1}) != 0 {
		t.Fatal("missing label should have zero selectivity")
	}
	if c.Selectivity(Path{1, 0, 0}) != 0 {
		t.Fatal("pruned subtree should be zero")
	}
	if c.Selectivity(Path{0, 0}) != 1 {
		t.Fatal("a/a should be 1")
	}
}

func TestCensusLabelFrequencies(t *testing.T) {
	g := dataset.ErdosRenyi(40, 200, dataset.UniformLabels{L: 4}, 10)
	c := oracle.NewCensus(g.Freeze(), 2)
	want := g.LabelFrequencies()
	got := c.LabelFrequencies()
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("label %d frequency %d, want %d", l, got[l], want[l])
		}
	}
}

func TestCensusTotalsAndMax(t *testing.T) {
	freq := []int64{5, 3, 0, 7, 1, 2, 9, 0, 4, 6, 8, 2} // |L2| over 3 labels
	c := FromFrequencies(3, 2, freq)
	if censusTotal(c) != 47 {
		t.Fatalf("Total = %d", censusTotal(c))
	}
	if c.AtCanonical(3) != 7 {
		t.Fatalf("AtCanonical(3) = %d", c.AtCanonical(3))
	}
}

func TestFromFrequenciesValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size frequency vector should panic")
		}
	}()
	FromFrequencies(3, 2, make([]int64, 5))
}

// TestCensusRestrictMatchesFreshCensus pins Restrict against a census
// built at the smaller bound: for every k′ ≤ k, the k-census restricted to
// k′ has the k′-census's metadata and every one of its frequencies, and a
// bound outside [1, k] panics.
func TestCensusRestrictMatchesFreshCensus(t *testing.T) {
	g := dataset.ErdosRenyi(80, 600, dataset.NewZipfLabels(3, 1.2), 13).Freeze()
	const k = 4
	full := NewCensusHybrid(g, k, CensusOptions{Workers: 2})
	for kk := 1; kk <= k; kk++ {
		got := full.Restrict(kk)
		if got.K() != kk || got.NumLabels() != full.NumLabels() {
			t.Fatalf("Restrict(%d): K %d, %d labels; want %d, %d", kk, got.K(), got.NumLabels(), kk, full.NumLabels())
		}
		assertCensusEqual(t, fmt.Sprintf("Restrict(%d)", kk), NewCensusHybrid(g, kk, CensusOptions{Workers: 1}), got)
	}
	for _, bad := range []int{0, k + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Restrict(%d) of a k=%d census should panic", bad, k)
				}
			}()
			full.Restrict(bad)
		}()
	}
}

func TestNewCensusBadK(t *testing.T) {
	g := lineGraph([]int{0}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 should panic")
		}
	}()
	oracle.NewCensus(g, 0)
}

func TestCensusForEachEarlyStop(t *testing.T) {
	c := FromFrequencies(3, 1, []int64{1, 2, 3})
	n := 0
	c.ForEach(func(Path, int64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// censusTotal is Σ f(ℓ) over the census.
func censusTotal(c *Census) int64 {
	var t int64
	for i := int64(0); i < c.Size(); i++ {
		t += c.AtCanonical(i)
	}
	return t
}
