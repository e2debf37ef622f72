package experiments

import (
	"bytes"
	"testing"
)

func TestCorrelationSweepShape(t *testing.T) {
	cells, err := CorrelationSweep(tinyOptions(), []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 couplings × 5 methods.
	if len(cells) != 10 {
		t.Fatalf("cells = %d, want 10", len(cells))
	}
	for _, c := range cells {
		if c.MeanErrorRate < 0 || c.MeanErrorRate > 1 {
			t.Fatalf("bad cell %+v", c)
		}
	}
	var buf bytes.Buffer
	if err := correlationTable(cells).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, &buf)); got != 1+len(cells) {
		t.Fatalf("correlation CSV rows = %d, want %d", got, 1+len(cells))
	}
	// The advantage table has one row per coupling, in sweep order.
	adv := advantageTable(cells)
	if len(adv.Rows) != 2 || adv.Rows[0][0] != "0.00" || adv.Rows[1][0] != "1.00" {
		t.Fatalf("advantage rows = %v", adv.Rows)
	}
}

func TestCorrelationShrinksSumBasedAdvantage(t *testing.T) {
	// The paper's §4 explanation, tested directly: the sum-based advantage
	// under independent labels (coupling 0) must exceed the advantage
	// under fully correlated labels (coupling 1).
	opt := Options{
		Scale: 0.08, Seed: 1, TimingK: 3,
		AccuracyKs: []int{3}, BetaDenoms: []int{16},
		Queries: 10, Repeats: 1,
	}
	cells, err := CorrelationSweep(opt, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	adv := SumBasedAdvantage(cells)
	if adv[0] <= 1.0 {
		t.Fatalf("sum-based should win at coupling 0, advantage %.2f", adv[0])
	}
	if adv[0] <= adv[1] {
		t.Fatalf("advantage should shrink with coupling: %.2f (c=0) vs %.2f (c=1)",
			adv[0], adv[1])
	}
}

func TestCorrelationSweepDefaultCouplings(t *testing.T) {
	cells, err := CorrelationSweep(tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5 default couplings × 5 methods.
	if len(cells) != 25 {
		t.Fatalf("cells = %d, want 25", len(cells))
	}
}

func TestSumBasedAdvantageReduction(t *testing.T) {
	cells := []CorrelationCell{
		{Coupling: 0, Method: "num-alph", MeanErrorRate: 0.4},
		{Coupling: 0, Method: "sum-based", MeanErrorRate: 0.2},
		{Coupling: 1, Method: "num-alph", MeanErrorRate: 0.4},
		{Coupling: 1, Method: "sum-based", MeanErrorRate: 0.4},
	}
	adv := SumBasedAdvantage(cells)
	if adv[0] != 2.0 {
		t.Fatalf("advantage at 0 = %v, want 2.0", adv[0])
	}
	if adv[1] != 1.0 {
		t.Fatalf("advantage at 1 = %v, want 1.0", adv[1])
	}
}
