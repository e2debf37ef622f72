package exec

import (
	"testing"

	"repro/internal/paths"
)

// TestCheapestTieBreak pins the deterministic tie-break rule: strictly
// lower cost wins, and among equal costs the lowest start index wins —
// including the case where an interior start ties the backward plan, which
// an earlier endpoint-preferring rule resolved differently.
func TestCheapestTieBreak(t *testing.T) {
	cases := []struct {
		costs []float64
		want  int
	}{
		{[]float64{5}, 0},
		{[]float64{5, 5, 5}, 0},       // all equal: forward
		{[]float64{5, 3, 3, 5}, 1},    // interior tie: lowest interior
		{[]float64{3, 4, 3}, 0},       // endpoint tie: forward
		{[]float64{2, 1, 1}, 1},       // interior ties backward: interior wins
		{[]float64{9, 4, 2, 4}, 2},    // unique minimum
		{[]float64{1, 0, 0, 0, 1}, 1}, // run of zeros: first
	}
	for _, c := range cases {
		if got := cheapest(c.costs); got != c.want {
			t.Errorf("cheapest(%v) = %d, want %d", c.costs, got, c.want)
		}
	}
	// Plan must route through the same rule.
	pl := Planner{Est: EstimatorFunc(func(p paths.Path) float64 { return float64(len(p)) })}
	b := pl.Plan(PathDag(paths.Path{0, 0, 0}), 0, false)
	if got, want := b.Tree.Start, cheapest(b.Costs); got != want {
		t.Errorf("Plan chose start %d, cheapest(Costs) = %d", got, want)
	}
}
