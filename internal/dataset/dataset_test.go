package dataset

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestUniformLabels(t *testing.T) {
	u := UniformLabels{L: 4}
	if u.NumLabels() != 4 {
		t.Fatal("NumLabels wrong")
	}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		l := u.Label(rng, 0, 0, 0, 0)
		if l < 0 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for l, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("uniform label %d count %d far from 1000", l, c)
		}
	}
}

func TestZipfLabelsSkew(t *testing.T) {
	z := NewZipfLabels(6, 1.2)
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 6)
	for i := 0; i < 20000; i++ {
		counts[z.Label(rng, 0, 0, 0, 0)]++
	}
	// Frequencies must be monotone decreasing in rank (with slack) and
	// label 0 clearly dominant over label 5.
	if counts[0] < 3*counts[5] {
		t.Fatalf("Zipf skew too weak: %v", counts)
	}
	for i := 1; i < 6; i++ {
		if float64(counts[i]) > 1.15*float64(counts[i-1]) {
			t.Fatalf("Zipf counts not roughly monotone: %v", counts)
		}
	}
}

func TestZipfLabelsZeroSkewIsUniform(t *testing.T) {
	z := NewZipfLabels(4, 0)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[z.Label(rng, 0, 0, 0, 0)]++
	}
	for _, c := range counts {
		if c < 1600 || c > 2400 {
			t.Fatalf("s=0 Zipf should be near uniform: %v", counts)
		}
	}
}

func TestNewZipfLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipfLabels(0, 1) should panic")
		}
	}()
	NewZipfLabels(0, 1)
}

func TestCorrelatedLabelsRange(t *testing.T) {
	c := &CorrelatedLabels{Zipf: NewZipfLabels(6, 1.1), Coupling: 0.7}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		l := c.Label(rng, 0, 0, rng.Intn(1000), rng.Intn(1000))
		if l < 0 || l >= 6 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestCorrelatedLabelsHubsGetFrequentLabels(t *testing.T) {
	c := &CorrelatedLabels{Zipf: NewZipfLabels(6, 1.1), Coupling: 1.0}
	rng := rand.New(rand.NewSource(5))
	hub, leaf := 0.0, 0.0
	const trials = 4000
	for i := 0; i < trials; i++ {
		hub += float64(c.Label(rng, 0, 0, 500, 500))
		leaf += float64(c.Label(rng, 0, 0, 0, 0))
	}
	if hub/trials >= leaf/trials {
		t.Fatalf("hub mean label rank %.2f should be below leaf %.2f", hub/trials, leaf/trials)
	}
}

func TestErdosRenyiCounts(t *testing.T) {
	g := ErdosRenyi(100, 500, UniformLabels{L: 4}, 42)
	if g.NumVertices() != 100 || g.NumLabels() != 4 {
		t.Fatal("sizes wrong")
	}
	if g.NumEdges() != 500 {
		t.Fatalf("NumEdges = %d, want 500", g.NumEdges())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(50, 200, UniformLabels{L: 3}, 7)
	b := ErdosRenyi(50, 200, UniformLabels{L: 3}, 7)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("different edge counts for same seed")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := ErdosRenyi(50, 200, UniformLabels{L: 3}, 8)
	same := true
	ec := c.Edges()
	for i := range ea {
		if ea[i] != ec[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestErdosRenyiImpossiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("impossible edge count should panic")
		}
	}()
	ErdosRenyi(2, 100, UniformLabels{L: 1}, 1)
}

func TestPreferentialAttachmentCountsAndSkew(t *testing.T) {
	g := PreferentialAttachment(500, 3000, UniformLabels{L: 4}, 13)
	if g.NumEdges() != 3000 {
		t.Fatalf("NumEdges = %d, want 3000", g.NumEdges())
	}
	// Degree skew: max out-degree should far exceed the mean (6).
	out := make([]int, 500)
	for _, e := range g.Edges() {
		out[e.Src]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	if out[0] < 20 {
		t.Fatalf("max out-degree %d too small for a scale-free graph", out[0])
	}
}

func TestForestFireCounts(t *testing.T) {
	g := ForestFire(1000, 2500, 0.35, 0.32, UniformLabels{L: 4}, 21)
	if g.NumVertices() != 1000 {
		t.Fatal("vertex count wrong")
	}
	if g.NumEdges() != 2500 {
		t.Fatalf("NumEdges = %d, want 2500", g.NumEdges())
	}
}

func TestForestFireDeterministic(t *testing.T) {
	a := ForestFire(300, 800, 0.35, 0.32, UniformLabels{L: 3}, 5)
	b := ForestFire(300, 800, 0.35, 0.32, UniformLabels{L: 3}, 5)
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("forest fire not deterministic")
		}
	}
}

func TestTable3Specs(t *testing.T) {
	specs := Table3()
	if len(specs) != 4 {
		t.Fatalf("Table3 has %d rows, want 4", len(specs))
	}
	want := []Spec{
		{"Moreno health", 6, 2539, 12969, true},
		{"DBpedia (subgraph)", 8, 37374, 209068, true},
		{"SNAP-ER", 6, 12333, 147996, false},
		{"SNAP-FF", 8, 50000, 132673, false},
	}
	for i, w := range want {
		if specs[i] != w {
			t.Errorf("Table3[%d] = %+v, want %+v", i, specs[i], w)
		}
	}
}

func TestGenerateScaled(t *testing.T) {
	for _, spec := range Table3() {
		g := Generate(spec, 0.05, 99)
		wantV := int(float64(spec.Vertices) * 0.05)
		wantE := int(float64(spec.Edges) * 0.05)
		if g.NumVertices() != wantV {
			t.Errorf("%s: vertices = %d, want %d", spec.Name, g.NumVertices(), wantV)
		}
		if g.NumEdges() != wantE {
			t.Errorf("%s: edges = %d, want %d", spec.Name, g.NumEdges(), wantE)
		}
		if g.NumLabels() != spec.Labels {
			t.Errorf("%s: labels = %d, want %d", spec.Name, g.NumLabels(), spec.Labels)
		}
	}
}

func TestGenerateBadScalePanics(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scale %v should panic", s)
				}
			}()
			Generate(Table3()[0], s, 1)
		}()
	}
}

func TestMorenoLikeLabelSkew(t *testing.T) {
	// The Moreno substitute must have clearly skewed label frequencies —
	// the property Figure 1 and cardinality ranking depend on.
	g := Generate(Table3()[0], 0.2, 7)
	freq := g.LabelFrequencies()
	mx, mn := freq[0], freq[0]
	for _, f := range freq {
		if f > mx {
			mx = f
		}
		if f < mn {
			mn = f
		}
	}
	if mn == 0 {
		t.Fatalf("a label is unused: %v", freq)
	}
	if float64(mx) < 2*float64(mn) {
		t.Fatalf("label skew too weak for Moreno-like data: %v", freq)
	}
}

func TestSnapERLabelSkewedIndependent(t *testing.T) {
	// Synthetic datasets have skewed label frequencies (rank-1 label
	// clearly dominates the rarest) — see datasets.go for the rationale.
	g := Generate(Table3()[2], 0.1, 7)
	freq := g.LabelFrequencies()
	mx, mn := freq[0], freq[0]
	for _, f := range freq {
		if f > mx {
			mx = f
		}
		if f < mn {
			mn = f
		}
	}
	if mn == 0 || float64(mx) < 2*float64(mn) {
		t.Fatalf("SNAP-ER labels should be skewed: %v", freq)
	}
}

func TestFullScaleConstructorsMatchTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in -short mode")
	}
	g := Generate(Table3()[0], 1.0, 1)
	if g.NumVertices() != 2539 || g.NumEdges() != 12969 || g.NumLabels() != 6 {
		t.Fatalf("Moreno health = %d/%d/%d", g.NumVertices(), g.NumEdges(), g.NumLabels())
	}
	ff := Generate(Table3()[3], 1.0, 1)
	if ff.NumVertices() != 50000 || ff.NumEdges() != 132673 {
		t.Fatalf("SNAP-FF = %d/%d", ff.NumVertices(), ff.NumEdges())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := ErdosRenyi(40, 150, UniformLabels{L: 3}, 17)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g.Freeze()); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	if g2.NumLabels() != g.NumLabels() {
		t.Fatalf("round trip labels = %d, want %d", g2.NumLabels(), g.NumLabels())
	}
	// Vertex ids can be renumbered if some vertices are isolated, but the
	// multiset of (src, dst, labelName) triples must survive. The writer's
	// 1-based ids are densified in ascending order, so edges survive with
	// a monotone vertex relabeling; compare label-name streams per edge.
	ea, eb := g.Edges(), g2.Edges()
	if len(ea) != len(eb) {
		t.Fatal("edge lists differ in length")
	}
	for i := range ea {
		if g.LabelName(ea[i].Label) != g2.LabelName(eb[i].Label) {
			t.Fatalf("edge %d label %q != %q", i, g.LabelName(ea[i].Label), g2.LabelName(eb[i].Label))
		}
	}
}

func TestReadEdgeListParsing(t *testing.T) {
	in := `% a comment
# another comment

1 2 knows
2 3 likes
3 1 knows
5 5
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.NumLabels() != 3 { // "1" (default), "knows", "likes" sorted
		t.Fatalf("NumLabels = %d, want 3", g.NumLabels())
	}
	if g.LabelName(0) != "1" || g.LabelName(1) != "knows" || g.LabelName(2) != "likes" {
		t.Fatal("label names missing or not alphabetical")
	}
	if g.NumVertices() != 4 { // ids 1,2,3,5 densified
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",
		"a 2 l\n",
		"1 b l\n",
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("% only comments\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty input should produce empty graph")
	}
}

func TestWriteEdgeListFormat(t *testing.T) {
	g := graph.New(3, 2)
	g.SetLabelName(0, "a")
	g.SetLabelName(1, "b")
	g.AddEdge(0, 0, 1)
	g.AddEdge(2, 1, 0)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g.Freeze()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1 2 a") || !strings.Contains(out, "3 1 b") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if !strings.HasPrefix(out, "%") {
		t.Fatal("should start with a comment header")
	}
}
