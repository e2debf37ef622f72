package experiments

import (
	"bytes"
	"testing"

	"repro/internal/ordering"
)

func TestPlanQuality(t *testing.T) {
	opt := tinyOptions()
	opt.Queries = 60
	cells, err := PlanQuality(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("cells = %d, want 5", len(cells))
	}
	for _, c := range cells {
		if c.Agreement < 0 || c.Agreement > 1 {
			t.Fatalf("agreement %v outside [0,1]: %+v", c.Agreement, c)
		}
		if c.WorkRatio < 1 {
			t.Fatalf("work ratio %v below 1 (cannot beat the oracle): %+v", c.WorkRatio, c)
		}
		if c.TreeAgreement < 0 || c.TreeAgreement > 1 {
			t.Fatalf("tree agreement %v outside [0,1]: %+v", c.TreeAgreement, c)
		}
		if c.TreeWorkRatio < 1 {
			t.Fatalf("tree work ratio %v below 1 (cannot beat the tree oracle): %+v", c.TreeWorkRatio, c)
		}
		if c.OracleBushyWins < 0 || c.OracleBushyWins > 1 {
			t.Fatalf("oracle bushy wins %v outside [0,1]: %+v", c.OracleBushyWins, c)
		}
		if c.OracleBushyWins != cells[0].OracleBushyWins {
			t.Fatalf("OracleBushyWins is workload-level and must not vary by method: %+v", c)
		}
		if c.CacheBushyWins < 0 || c.CacheBushyWins > 1 {
			t.Fatalf("cache bushy wins %v outside [0,1]: %+v", c.CacheBushyWins, c)
		}
		if c.CacheBushyWins != cells[0].CacheBushyWins {
			t.Fatalf("CacheBushyWins is workload-level and must not vary by method: %+v", c)
		}
	}
	var buf bytes.Buffer
	if err := planTable(cells).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, &buf)); got != 1+len(cells) {
		t.Fatalf("plans CSV rows = %d, want %d", got, 1+len(cells))
	}
}

func TestPlanQualityEstimatesHelp(t *testing.T) {
	// Histogram-driven planning must beat random planning. A length-4
	// query has 4 zig-zag plans, so picking one uniformly at random finds
	// the optimum on ≥ 1/4 of queries (ties only help); every ordering
	// method must clear even the old 3-plan bar of 1/3, and the better
	// half of the field must be decisively above it — the spread between
	// methods is the point of the widened plan space.
	opt := Options{
		Scale: 0.08, Seed: 1, TimingK: 3,
		AccuracyKs: []int{3}, BetaDenoms: []int{16},
		Queries: 100, Repeats: 1,
	}
	cells, err := PlanQuality(opt)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, c := range cells {
		if c.Agreement <= 1.0/3 {
			t.Errorf("%s: oracle agreement %.3f not better than random plan choice", c.Method, c.Agreement)
		}
		if c.Agreement > best {
			best = c.Agreement
		}
	}
	if best <= 0.6 {
		t.Errorf("no ordering method clears 0.6 oracle agreement (best %.3f)", best)
	}
	// And sum-based should not be clearly worse than the field, given its
	// Figure 2 accuracy edge.
	var sum, worst float64
	worst = 2
	for _, c := range cells {
		if c.Method == ordering.MethodSumBased {
			sum = c.WorkRatio
		} else if c.WorkRatio < worst {
			worst = c.WorkRatio
		}
	}
	if sum > worst*1.25 {
		t.Errorf("sum-based work ratio %.3f clearly worse than best rival %.3f", sum, worst)
	}
}
