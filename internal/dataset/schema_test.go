package dataset

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

func validSchema() Schema {
	return Schema{
		Vertices: 200,
		Edges:    1000,
		Labels: []LabelSpec{
			{Name: "a", Proportion: 0.5, OutDist: DegreeZipfian, InDist: DegreeUniform, Skew: 1.2},
			{Name: "b", Proportion: 0.3, OutDist: DegreeUniform, InDist: DegreeUniform},
			{Name: "c", Proportion: 0.2, OutDist: DegreeConstant, InDist: DegreeConstant},
		},
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := validSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{Vertices: 0, Edges: 1, Labels: validSchema().Labels},
		{Vertices: 10, Edges: -1, Labels: validSchema().Labels},
		{Vertices: 10, Edges: 5, Labels: nil},
		{Vertices: 10, Edges: 5, Labels: []LabelSpec{{Name: "a", Proportion: 0}}},
		{Vertices: 10, Edges: 5, Labels: []LabelSpec{{Name: "", Proportion: 1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schema %d should be invalid", i)
		}
	}
}

func TestGenerateSchemaCountsExact(t *testing.T) {
	s := validSchema()
	g, err := GenerateSchema(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 200 || g.NumEdges() != 1000 || g.NumLabels() != 3 {
		t.Fatalf("sizes = %d/%d/%d", g.NumVertices(), g.NumEdges(), g.NumLabels())
	}
	freq := g.Freeze().LabelFrequencies()
	// Proportions 0.5/0.3/0.2 over 1000 edges, exact by apportionment.
	if freq[0] != 500 || freq[1] != 300 || freq[2] != 200 {
		t.Fatalf("label frequencies %v, want [500 300 200]", freq)
	}
	if g.LabelName(0) != "a" || g.LabelName(2) != "c" {
		t.Fatal("label names lost")
	}
}

func TestGenerateSchemaRoundingRemainder(t *testing.T) {
	s := Schema{
		Vertices: 50,
		Edges:    10,
		Labels: []LabelSpec{
			{Name: "x", Proportion: 1},
			{Name: "y", Proportion: 1},
			{Name: "z", Proportion: 1},
		},
	}
	g, err := GenerateSchema(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 10 {
		t.Fatalf("edges = %d, want 10", g.NumEdges())
	}
	freq := g.Freeze().LabelFrequencies()
	var total int64
	for _, f := range freq {
		if f < 3 || f > 4 {
			t.Fatalf("apportionment uneven: %v", freq)
		}
		total += f
	}
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
}

func TestGenerateSchemaDeterministic(t *testing.T) {
	a, err := GenerateSchema(validSchema(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchema(validSchema(), 5)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestGenerateSchemaZipfianSkew(t *testing.T) {
	// The zipfian out-distribution must concentrate out-degree far more
	// than the uniform one at equal edge counts.
	mk := func(dist DegreeDist) int {
		s := Schema{
			Vertices: 300,
			Edges:    2000,
			Labels:   []LabelSpec{{Name: "l", Proportion: 1, OutDist: dist, InDist: DegreeUniform, Skew: 1.3}},
		}
		g, err := GenerateSchema(s, 11)
		if err != nil {
			t.Fatal(err)
		}
		deg := make([]int, 300)
		for _, e := range g.Edges() {
			deg[e.Src]++
		}
		sort.Sort(sort.Reverse(sort.IntSlice(deg)))
		top := 0
		for _, d := range deg[:15] { // top 5% of vertices
			top += d
		}
		return top
	}
	zipf, unif := mk(DegreeZipfian), mk(DegreeUniform)
	if zipf < 2*unif {
		t.Fatalf("zipfian top-degree mass %d not clearly above uniform %d", zipf, unif)
	}
}

func TestGenerateSchemaConstantDegree(t *testing.T) {
	s := Schema{
		Vertices: 100,
		Edges:    400,
		Labels:   []LabelSpec{{Name: "l", Proportion: 1, OutDist: DegreeConstant, InDist: DegreeUniform}},
	}
	g, err := GenerateSchema(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int, 100)
	for _, e := range g.Edges() {
		deg[e.Src]++
	}
	for v, d := range deg {
		if d < 2 || d > 6 { // target 4 per vertex, allow duplicate retries
			t.Fatalf("vertex %d out-degree %d far from constant 4", v, d)
		}
	}
}

func TestGenerateSchemaSaturation(t *testing.T) {
	// Dense corner: nearly all slots used; must still terminate with the
	// exact count via the uniform fallback.
	s := Schema{
		Vertices: 4,
		Edges:    15, // of 16 possible (4×4 incl. self loops) for one label
		Labels:   []LabelSpec{{Name: "l", Proportion: 1, OutDist: DegreeZipfian, InDist: DegreeZipfian, Skew: 2}},
	}
	g, err := GenerateSchema(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 15 {
		t.Fatalf("edges = %d, want 15", g.NumEdges())
	}
}

func TestGenerateSchemaImpossible(t *testing.T) {
	s := Schema{
		Vertices: 2,
		Edges:    100,
		Labels:   []LabelSpec{{Name: "l", Proportion: 1}},
	}
	if _, err := GenerateSchema(s, 1); err == nil {
		t.Fatal("over-capacity schema should error")
	}
}

func TestSchemaJSONRoundTrip(t *testing.T) {
	s := validSchema()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"zipfian"`) {
		t.Fatalf("degree shapes should serialize as names: %s", data)
	}
	var back Schema
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Vertices != s.Vertices || len(back.Labels) != len(s.Labels) {
		t.Fatal("schema lost in round trip")
	}
	for i := range s.Labels {
		if back.Labels[i] != s.Labels[i] {
			t.Fatalf("label %d: %+v != %+v", i, back.Labels[i], s.Labels[i])
		}
	}
}

func TestDegreeDistJSONErrors(t *testing.T) {
	var d DegreeDist
	if err := json.Unmarshal([]byte(`"pareto"`), &d); err == nil {
		t.Fatal("unknown shape should fail to parse")
	}
	if err := json.Unmarshal([]byte(`""`), &d); err != nil {
		t.Fatal("empty shape should default to uniform")
	}
	if d != DegreeUniform {
		t.Fatal("empty shape should be uniform")
	}
	bad := DegreeDist(42)
	if _, err := json.Marshal(bad); err == nil {
		t.Fatal("unknown shape should fail to marshal")
	}
}

func TestDegreeDistString(t *testing.T) {
	if DegreeUniform.String() != "uniform" || DegreeZipfian.String() != "zipfian" ||
		DegreeConstant.String() != "constant" {
		t.Fatal("names wrong")
	}
	if DegreeDist(9).String() != "DegreeDist(9)" {
		t.Fatal("unknown shape name wrong")
	}
}
