package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func fastOptions() experiments.Options {
	return experiments.Options{
		Scale:      0.02,
		Seed:       1,
		TimingK:    3,
		AccuracyKs: []int{2},
		BetaDenoms: []int{8},
		Queries:    50,
		Repeats:    1,
	}
}

// TestRunSingleExperiments runs every registered experiment by name.
func TestRunSingleExperiments(t *testing.T) {
	for _, exp := range names() {
		if err := run(exp, fastOptions(), ""); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
	}
}

// TestRunUnknownExperiment: the error names every runnable experiment.
func TestRunUnknownExperiment(t *testing.T) {
	err := run("nonsense", fastOptions(), "")
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
	for _, name := range names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not offer %q", err, name)
		}
	}
}

// TestCapKs: -maxk below the sweep's smallest bound is named as such
// instead of surfacing as an empty sweep list.
func TestCapKs(t *testing.T) {
	ks, err := capKs([]int{2, 3, 4}, 3)
	if err != nil || len(ks) != 2 || ks[1] != 3 {
		t.Fatalf("capKs([2 3 4], 3) = %v, %v", ks, err)
	}
	if _, err := capKs([]int{2, 3}, 1); err == nil || !strings.Contains(err.Error(), "-maxk 1") {
		t.Fatalf("capKs below the smallest bound: %v", err)
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("figure2", fastOptions(), dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV artifact")
	}
}

// TestRunAll: "all" with -csv writes exactly one non-empty file per
// table of the registry, named after the table.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	dir := t.TempDir()
	if err := run("all", fastOptions(), dir); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	tables := 0
	for _, e := range experiments.Experiments {
		res, err := e.Run(fastOptions())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, tab := range res.Tables() {
			want[tab.Name+".csv"] = true
			tables++
		}
	}
	if len(want) != tables {
		t.Fatalf("%d tables share %d file names", tables, len(want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != tables {
		t.Errorf("wrote %d files for %d tables", len(entries), tables)
	}
	for _, f := range entries {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		if !want[f.Name()] || info.Size() == 0 {
			t.Errorf("%s: not a registry table, or empty (%d bytes)", f.Name(), info.Size())
		}
	}
}
