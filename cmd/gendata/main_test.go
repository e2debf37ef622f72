package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func TestBuildNamedDataset(t *testing.T) {
	g, err := build("SNAP-ER", "", 0, 0, 0, 0, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 || g.NumLabels() != 6 {
		t.Fatalf("unexpected graph %d/%d", g.NumEdges(), g.NumLabels())
	}
}

func TestBuildCustomGenerators(t *testing.T) {
	for _, kind := range []string{"er", "ff", "pa"} {
		g, err := build("", kind, 100, 300, 3, 0, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.NumEdges() != 300 {
			t.Fatalf("%s: edges = %d, want 300", kind, g.NumEdges())
		}
	}
	// Zipf label model variant.
	g, err := build("", "er", 100, 300, 3, 1.5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	freq := g.Freeze().LabelFrequencies()
	if freq[0] <= freq[2] {
		t.Fatalf("zipf labels should be skewed: %v", freq)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name, custom string
		scale        float64
	}{
		{"SNAP-ER", "er", 1}, // both specified
		{"nope", "", 1},      // unknown dataset
		{"", "warp", 1},      // unknown generator
		{"", "", 1},          // neither
		{"SNAP-ER", "", 9},   // bad scale
	}
	for _, c := range cases {
		if _, err := build(c.name, c.custom, 10, 20, 2, 0, c.scale, 1); err == nil {
			t.Errorf("build(%q, %q, scale=%v) should error", c.name, c.custom, c.scale)
		}
	}
}

func TestBuildFromSchemaFile(t *testing.T) {
	s := dataset.Schema{
		Vertices: 50,
		Edges:    120,
		Labels: []dataset.LabelSpec{
			{Name: "a", Proportion: 2, OutDist: dataset.DegreeZipfian, Skew: 1.1},
			{Name: "b", Proportion: 1},
		},
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "schema.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := buildFromSchema(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 120 || g.NumLabels() != 2 {
		t.Fatalf("schema graph %d/%d", g.NumEdges(), g.NumLabels())
	}
	freq := g.Freeze().LabelFrequencies()
	if freq[0] != 80 || freq[1] != 40 {
		t.Fatalf("proportions not honoured: %v", freq)
	}
}

func TestBuildFromSchemaErrors(t *testing.T) {
	if _, err := buildFromSchema(filepath.Join(t.TempDir(), "missing.json"), 1); err == nil {
		t.Fatal("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildFromSchema(bad, 1); err == nil {
		t.Fatal("malformed JSON should error")
	}
	invalid := filepath.Join(t.TempDir(), "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"Vertices":0,"Edges":1,"Labels":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildFromSchema(invalid, 1); err == nil {
		t.Fatal("invalid schema should error")
	}
}
