package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// writeTestGraph materializes a small edge-list file.
func writeTestGraph(t *testing.T) string {
	t.Helper()
	g := dataset.ErdosRenyi(40, 150, dataset.UniformLabels{L: 3}, 5)
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteEdgeList(f, g.Freeze()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunQueries(t *testing.T) {
	path := writeTestGraph(t)
	if err := run(path, 2, "sum-based", "v-optimal", 8, false, "", []string{"1/2", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEvaluate(t *testing.T) {
	path := writeTestGraph(t)
	if err := run(path, 2, "lex-card", "equi-width", 8, true, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t)
	cases := map[string]func() error{
		"no graph":       func() error { return run("", 2, "sum-based", "v-optimal", 8, false, "", nil) },
		"missing file":   func() error { return run("/nonexistent", 2, "sum-based", "v-optimal", 8, false, "", nil) },
		"no queries":     func() error { return run(path, 2, "sum-based", "v-optimal", 8, false, "", nil) },
		"bad ordering":   func() error { return run(path, 2, "bogus", "v-optimal", 8, false, "", []string{"1"}) },
		"bad histogram":  func() error { return run(path, 2, "sum-based", "bogus", 8, false, "", []string{"1"}) },
		"unknown label":  func() error { return run(path, 2, "sum-based", "v-optimal", 8, false, "", []string{"zzz"}) },
		"loaded missing": func() error { return runLoaded("/nonexistent", []string{"1"}) },
	}
	for name, fn := range cases {
		if err := fn(); err == nil {
			t.Errorf("%s should error", name)
		}
	}
}

func TestSaveAndLoadRoundTrip(t *testing.T) {
	path := writeTestGraph(t)
	synopsis := filepath.Join(t.TempDir(), "stats.psh")
	// Saving without queries is a valid invocation.
	if err := run(path, 2, "sum-based", "v-optimal", 8, false, synopsis, nil); err != nil {
		t.Fatal(err)
	}
	if err := runLoaded(synopsis, []string{"1/2", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runLoaded(synopsis, nil); err == nil {
		t.Fatal("loaded run without queries should error")
	}
	if err := runLoaded(synopsis, []string{"zzz"}); err == nil {
		t.Fatal("unknown label should error")
	}
}
