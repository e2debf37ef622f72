package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.csv from this tree's behaviour")

// TestGoldenCSV gates the paper's numbers for exact equality: at one fixed
// reduced configuration every accuracy and plan-quality experiment is
// written through its own CSV writer and compared byte for byte with the
// committed file. Everything written is a deterministic function of the
// seed, so a planner or estimator change that shifts an error rate or a
// plan-agreement cell fails here; -update rewrites the files, only when
// that shift is intended. Table 4 is wall-clock timing and is not pinned.
// The files are cut on amd64; the compiler fuses multiply-add on arm64,
// ppc64 and s390x, so a last-digit mismatch there is not a regression.
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
	for _, c := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"figure2", func(w io.Writer) error {
			res, err := RunFigure2(opt)
			if err != nil {
				return err
			}
			return res.WriteCSV(w)
		}},
		{"bounds", func(w io.Writer) error {
			cells, err := OrderingBounds(opt)
			if err != nil {
				return err
			}
			return WriteBoundsCSV(w, cells)
		}},
		{"ablation", func(w io.Writer) error {
			cells, err := BuilderAblation(opt)
			if err != nil {
				return err
			}
			return WriteAblationCSV(w, cells)
		}},
		{"workload", func(w io.Writer) error {
			cells, err := WorkloadAccuracy(opt)
			if err != nil {
				return err
			}
			return WriteWorkloadCSV(w, cells)
		}},
		{"plans", func(w io.Writer) error {
			cells, err := PlanQuality(opt)
			if err != nil {
				return err
			}
			return WritePlanCSV(w, cells)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := c.write(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".golden.csv")
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
