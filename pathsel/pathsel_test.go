package pathsel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paths"
)

// socialGraph builds a small deterministic graph for API tests.
func socialGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(6, []string{"knows", "likes"})
	edges := []struct {
		src   int
		label string
		dst   int
	}{
		{0, "knows", 1}, {1, "knows", 2}, {2, "knows", 3},
		{0, "likes", 2}, {1, "likes", 3}, {3, "likes", 4},
		{4, "knows", 5}, {2, "likes", 5},
	}
	for _, e := range edges {
		if _, err := g.AddEdge(e.src, e.label, e.dst); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewGraphBasics(t *testing.T) {
	g := socialGraph(t)
	if g.NumVertices() != 6 || g.NumEdges() != 8 {
		t.Fatalf("sizes = %d/%d", g.NumVertices(), g.NumEdges())
	}
	labels := g.Labels()
	if len(labels) != 2 || labels[0] != "knows" || labels[1] != "likes" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestNewGraphNoLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no labels should panic")
		}
	}()
	NewGraph(3, nil)
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewGraph(2, []string{"a"})
	if _, err := g.AddEdge(0, "b", 1); err == nil {
		t.Fatal("unknown label should error")
	}
	if _, err := g.AddEdge(0, "a", 5); err == nil {
		t.Fatal("out-of-range vertex should error")
	}
	added, err := g.AddEdge(0, "a", 1)
	if err != nil || !added {
		t.Fatal("valid edge should add")
	}
	added, err = g.AddEdge(0, "a", 1)
	if err != nil || added {
		t.Fatal("duplicate edge should be a no-op false")
	}
}

func TestTrueSelectivity(t *testing.T) {
	g := socialGraph(t)
	// knows/knows: 0→1→2, 1→2→3, 3... edges: knows = {0→1,1→2,2→3,4→5}.
	// knows/knows pairs: (0,2), (1,3). knows/knows/knows: (0,3).
	cases := map[string]int64{
		"knows":             4,
		"likes":             4,
		"knows/knows":       2,
		"knows/knows/knows": 1,
		"knows/likes":       3, // (0,3) via 1, (1,5) via 2, (2,4) via 3
	}
	for q, want := range cases {
		got, err := g.TrueSelectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("f(%s) = %d, want %d", q, got, want)
		}
	}
	if _, err := g.TrueSelectivity("nope"); err == nil {
		t.Fatal("unknown label should error")
	}
	if _, err := g.TrueSelectivity(""); err == nil {
		t.Fatal("empty path should error")
	}
}

func TestBuildAndEstimate(t *testing.T) {
	g := socialGraph(t)
	est, err := Build(g, Config{MaxPathLength: 3, Buckets: 14})
	if err != nil {
		t.Fatal(err)
	}
	if est.Ordering() != OrderingSumBased {
		t.Fatalf("default ordering = %s", est.Ordering())
	}
	if est.DomainSize() != 2+4+8 {
		t.Fatalf("domain size = %d", est.DomainSize())
	}
	// With β = |Lk| every estimate is exact.
	exact, err := Build(g, Config{MaxPathLength: 3, Buckets: 14, Ordering: OrderingNumAlph})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"knows", "likes/knows", "knows/knows/knows"} {
		e, err := exact.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		f, err := g.TrueSelectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		if e != float64(f) {
			t.Errorf("exact-budget estimate of %s = %v, want %d", q, e, f)
		}
		fRecorded, err := exact.TrueSelectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		if fRecorded != f {
			t.Errorf("recorded selectivity of %s = %d, want %d", q, fRecorded, f)
		}
	}
}

func TestBuildConfigDefaultsAndErrors(t *testing.T) {
	g := socialGraph(t)
	if _, err := Build(g, Config{MaxPathLength: 0, Buckets: 4}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Build(g, Config{MaxPathLength: 2, Buckets: 0}); err == nil {
		t.Fatal("β=0 should error")
	}
	if _, err := Build(g, Config{MaxPathLength: 2, Buckets: 4, Ordering: "bogus"}); err == nil {
		t.Fatal("unknown ordering should error")
	}
	if _, err := Build(g, Config{MaxPathLength: 2, Buckets: 4, Histogram: "bogus"}); err == nil {
		t.Fatal("unknown histogram should error")
	}
}

func TestEstimateErrors(t *testing.T) {
	g := socialGraph(t)
	est, err := Build(g, Config{MaxPathLength: 2, Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Estimate("knows/knows/knows"); err == nil {
		t.Fatal("over-length path should error")
	}
	if _, err := est.Estimate("zzz"); err == nil {
		t.Fatal("unknown label should error")
	}
	if _, err := est.TrueSelectivity("zzz"); err == nil {
		t.Fatal("unknown label should error in TrueSelectivity")
	}
	if _, err := est.TrueSelectivity("knows/knows/knows"); err == nil {
		t.Fatal("over-length path should error in TrueSelectivity")
	}
}

func TestEvaluate(t *testing.T) {
	g := socialGraph(t)
	est, err := Build(g, Config{MaxPathLength: 3, Buckets: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc := est.Evaluate()
	if acc.Paths != 14 {
		t.Fatalf("Paths = %d", acc.Paths)
	}
	if acc.MeanErrorRate < 0 || acc.MeanErrorRate > 1 {
		t.Fatalf("MeanErrorRate = %v", acc.MeanErrorRate)
	}
	if acc.MeanQError < 1 {
		t.Fatalf("MeanQError = %v", acc.MeanQError)
	}
	if est.Buckets() < 1 || est.Buckets() > 3 {
		t.Fatalf("Buckets = %d", est.Buckets())
	}
}

// TestExactAnswersEqualTheCensus pins the estimator's exact answers, which
// it computes from its CSR when asked, to a census the test counts itself,
// on every Table 3 generator: TrueSelectivity (and the Graph's) on every
// path of L_k, TruePrefixSelectivity on every label, Evaluate bit for bit
// against core.Evaluate, and DomainSize on the estimator and on its saved
// synopsis.
func TestExactAnswersEqualTheCensus(t *testing.T) {
	const k = 3
	for _, name := range DatasetNames() {
		t.Run(name, func(t *testing.T) {
			g, err := GenerateDataset(name, 0.02, 5)
			if err != nil {
				t.Fatal(err)
			}
			est, err := Build(g, Config{MaxPathLength: k, Buckets: 16, Ordering: OrderingLexCard})
			if err != nil {
				t.Fatal(err)
			}
			c := paths.NewCensusHybrid(est.csr, k, paths.CensusOptions{Workers: 1})
			c.ForEach(func(p paths.Path, f int64) bool {
				q := p.String(est.csr)
				if got, err := est.TrueSelectivity(q); err != nil || got != f {
					t.Errorf("Estimator.TrueSelectivity(%s) = %d, %v, want %d", q, got, err, f)
				}
				if got, err := g.TrueSelectivity(q); err != nil || got != f {
					t.Errorf("Graph.TrueSelectivity(%s) = %d, %v, want %d", q, got, err, f)
				}
				if len(p) == 1 {
					if got, err := est.TruePrefixSelectivity(q); err != nil || got != c.PrefixSelectivity(p) {
						t.Errorf("TruePrefixSelectivity(%s) = %d, %v, want %d", q, got, err, c.PrefixSelectivity(p))
					}
				}
				return true
			})
			ev := core.Evaluate(est.ph, c)
			if got, want := est.Evaluate(), (Accuracy{ev.MeanErrorRate, ev.MeanQError, ev.MaxAbsError, c.Size()}); got != want {
				t.Errorf("Evaluate() = %+v, want %+v", got, want)
			}
			var buf bytes.Buffer
			if err := est.Save(&buf); err != nil {
				t.Fatal(err)
			}
			ce, err := LoadEstimator(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if est.DomainSize() != c.Size() || ce.DomainSize() != c.Size() {
				t.Errorf("DomainSize() = %d built, %d loaded, want |L_k| = %d", est.DomainSize(), ce.DomainSize(), c.Size())
			}
		})
	}
}

// TestMalformedPathIsABadPattern pins the one grammar every string entry
// point reads with — Compile's: what it refuses each method refuses with
// the same sentinel; a pattern it reads as more than one label path is
// ErrBadPattern to every path method and compiles; a path longer than k
// is ErrPathTooLong wherever k bounds the answer; and a pattern whose
// every element is one label taken once is that path, answered as it.
func TestMalformedPathIsABadPattern(t *testing.T) {
	g := NewGraph(3, []string{"a", "b"})
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	est, err := Build(g, Config{MaxPathLength: 3, Buckets: 4, Ordering: OrderingLexAlph})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	methods := []struct {
		name    string
		bounded bool // refuses a path longer than k
		call    func(string) (float64, error)
	}{
		{"Estimate", true, est.Estimate},
		{"EstimatePrefix", true, est.EstimatePrefix},
		{"Estimator.TrueSelectivity", true, func(q string) (float64, error) { v, err := est.TrueSelectivity(q); return float64(v), err }},
		{"Graph.TrueSelectivity", false, func(q string) (float64, error) { v, err := g.TrueSelectivity(q); return float64(v), err }},
		{"TruePrefixSelectivity", true, func(q string) (float64, error) { v, err := est.TruePrefixSelectivity(q); return float64(v), err }},
		{"CompactEstimator.Estimate", true, loaded.Estimate},
		{"CompactEstimator.EstimatePrefix", true, loaded.EstimatePrefix},
		{"Compile", true, func(q string) (float64, error) {
			x, err := est.Compile(q)
			if err != nil {
				return 0, err
			}
			return x.Estimate(), nil
		}},
	}
	for _, c := range []struct {
		q       string
		want    error
		pattern bool   // Compile reads it as a pattern and accepts it
		as      string // the label path an accepted query is answered as
	}{
		{q: "a/", want: ErrBadPattern},
		{q: "/a", want: ErrBadPattern},
		{q: "a//b", want: ErrBadPattern},
		{q: "a/c", want: ErrUnknownLabel},
		{q: "", want: ErrEmptyPath},
		{q: "a?", want: ErrBadPattern},
		{q: "a??", want: ErrBadPattern},
		{q: "a{2}?", want: ErrBadPattern},
		{q: "a{1}{2}", want: ErrBadPattern},
		{q: "a?{2}", want: ErrBadPattern},
		{q: "a/b??", want: ErrBadPattern},
		{q: "a|b", want: ErrBadPattern, pattern: true},
		{q: "*", want: ErrBadPattern, pattern: true},
		{q: "(a|b)", want: ErrBadPattern, pattern: true},
		{q: "a{2}", want: ErrBadPattern, pattern: true},
		{q: "a/b/a/b", want: ErrPathTooLong, as: "a/b/a/b"},
		{q: "a{1}", as: "a"},
		{q: "(a)", as: "a"},
		{q: "(a|a)/b{1}", as: "a/b"},
	} {
		for _, m := range methods {
			want := c.want
			if m.name == "Compile" && c.pattern || !m.bounded && errors.Is(want, ErrPathTooLong) {
				want = nil
			}
			got, err := m.call(c.q)
			if !errors.Is(err, want) {
				t.Errorf("%s(%q) = %v, want %v", m.name, c.q, err, want)
				continue
			}
			if err != nil || c.pattern {
				continue
			}
			if path, _ := m.call(c.as); got != path {
				t.Errorf("%s(%q) = %v, but %s(%q) = %v", m.name, c.q, got, m.name, c.as, path)
			}
		}
	}
}

func TestOrderingsList(t *testing.T) {
	o := Orderings()
	if len(o) != 5 || o[4] != OrderingSumBased {
		t.Fatalf("Orderings = %v", o)
	}
}

func TestEdgeListRoundTripThroughPublicAPI(t *testing.T) {
	g := socialGraph(t)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	f1, _ := g.TrueSelectivity("knows/likes")
	f2, err := g2.TrueSelectivity("knows/likes")
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("selectivity after round trip %d != %d", f2, f1)
	}
}

func TestLoadEdgeListError(t *testing.T) {
	if _, err := LoadEdgeList(strings.NewReader("not an edge list")); err == nil {
		t.Fatal("malformed input should error")
	}
}

func TestGenerateDataset(t *testing.T) {
	names := DatasetNames()
	if len(names) != 4 {
		t.Fatalf("DatasetNames = %v", names)
	}
	g, err := GenerateDataset("SNAP-ER", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("generated dataset empty")
	}
	if _, err := GenerateDataset("nope", 0.5, 1); err == nil {
		t.Fatal("unknown dataset should error")
	}
	if _, err := GenerateDataset("SNAP-ER", 7, 1); err == nil {
		t.Fatal("bad scale should error")
	}
}

func TestOrderingMethodsAgreeOnExactBudget(t *testing.T) {
	// All five orderings must yield identical (exact) estimates when every
	// bucket is a singleton: ordering only matters under compression.
	g := socialGraph(t)
	var ref *Estimator
	for _, method := range Orderings() {
		est, err := Build(g, Config{MaxPathLength: 2, Buckets: 6, Ordering: method})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = est
			continue
		}
		for _, q := range []string{"knows", "likes", "knows/likes", "likes/likes"} {
			a, _ := ref.Estimate(q)
			b, _ := est.Estimate(q)
			if a != b {
				t.Fatalf("%s: estimate of %s = %v, ref %v", method, q, b, a)
			}
		}
	}
}
