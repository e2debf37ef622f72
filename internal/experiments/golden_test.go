package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.csv from this tree's behaviour")

// TestGoldenCSV gates the paper's numbers for exact equality: at one fixed
// reduced configuration it runs every experiment of the registry and
// compares every table's CSV byte for byte with the committed
// testdata/<table>.golden.csv. Everything written is a deterministic
// function of the seed, so a planner or estimator change that shifts an
// error rate or a plan-agreement cell fails here; -update rewrites the
// files, only when that shift is intended. Table 4 is wall-clock timing
// and is not pinned. The files are cut on amd64; the compiler fuses
// multiply-add on arm64, ppc64 and s390x, so a last-digit mismatch there
// is not a regression.
func TestGoldenCSV(t *testing.T) {
	opt := Options{
		Scale:      0.1,
		Seed:       2018,
		TimingK:    3,
		AccuracyKs: []int{2, 3},
		BetaDenoms: []int{4, 32},
		Queries:    300,
		Repeats:    1,
	}
	for _, e := range Experiments {
		if e.Name == "table4" {
			continue
		}
		res, err := e.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, tab := range res.Tables() {
			t.Run(tab.Name, func(t *testing.T) {
				var got bytes.Buffer
				if err := tab.WriteCSV(&got); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", tab.Name+".golden.csv")
				if *updateGolden {
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s differs from this tree's output (rerun with -update only if the change is intended):\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
				}
			})
		}
	}
}
