package experiments

import (
	"bytes"
	"testing"

	"repro/internal/ordering"
)

func TestWorkloadAccuracy(t *testing.T) {
	cells, err := WorkloadAccuracy(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 5 methods × 4 workloads.
	if len(cells) != 20 {
		t.Fatalf("cells = %d, want 20", len(cells))
	}
	workloads := map[string]bool{}
	for _, c := range cells {
		workloads[c.Workload] = true
		if c.MeanErrorRate < 0 || c.MeanErrorRate > 1 {
			t.Fatalf("bad error rate %+v", c)
		}
		if c.MeanQError < 1 {
			t.Fatalf("q-error below 1: %+v", c)
		}
	}
	for _, w := range []string{"uniform", "non-empty", "freq-weighted", "len-3"} {
		if !workloads[w] {
			t.Errorf("workload %s missing", w)
		}
	}
	var buf bytes.Buffer
	if err := workloadTable(cells).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, &buf)); got != 1+len(cells) {
		t.Fatalf("workload CSV rows = %d, want %d", got, 1+len(cells))
	}
}

func TestErrorProfiles(t *testing.T) {
	rows, err := ErrorProfiles(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Per method: 3 length rows + up to 10 decile rows.
	byMethod := map[string]int{}
	for _, r := range rows {
		byMethod[r.Method]++
		if r.Axis != "length" && r.Axis != "decile" {
			t.Fatalf("unknown axis %q", r.Axis)
		}
		if r.MeanErrorRate < 0 || r.MeanErrorRate > 1 {
			t.Fatalf("bad error rate %+v", r)
		}
	}
	if len(byMethod) != 5 {
		t.Fatalf("methods = %d, want 5", len(byMethod))
	}
	for m, n := range byMethod {
		if n < 4 || n > 13 {
			t.Fatalf("%s has %d profile rows", m, n)
		}
	}
}

func TestWorkloadSumBasedStillWinsUniform(t *testing.T) {
	// On the uniform workload the result must agree with Figure 2's
	// finding at this budget: sum-based at least matches the best rival.
	cells, err := WorkloadAccuracy(Options{
		Scale: 0.06, Seed: 1, TimingK: 3,
		AccuracyKs: []int{3}, BetaDenoms: []int{16},
		Queries: 4000, Repeats: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum, best float64
	best = -1
	for _, c := range cells {
		if c.Workload != "uniform" {
			continue
		}
		if c.Method == ordering.MethodSumBased {
			sum = c.MeanErrorRate
		} else if best < 0 || c.MeanErrorRate < best {
			best = c.MeanErrorRate
		}
	}
	if sum > best+0.03 {
		t.Fatalf("sum-based %.4f clearly loses to best rival %.4f on uniform workload", sum, best)
	}
}
