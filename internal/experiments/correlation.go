package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ordering"
	"repro/internal/paths"
)

// CorrelationCell is one (coupling, method) accuracy measurement.
type CorrelationCell struct {
	// Coupling is the label–degree coupling strength of the generator
	// (0 = independent skewed labels, 1 = fully degree-driven).
	Coupling      float64
	Method        string
	Beta          int
	MeanErrorRate float64
}

// CorrelationSweep tests the paper's *explanation* for Figure 2's
// real-vs-synthetic gap head-on. Section 4 attributes the smaller
// sum-based advantage on real data to "the presence of edge-label
// cardinality correlations in real-life data". Here we hold everything
// fixed (graph family, size, label skew, k, β) and sweep only the
// label–degree coupling of the generator from 0 (independent labels, like
// the synthetic datasets) to 1 (fully correlated, an exaggerated
// real-world regime). If the paper's explanation is right, sum-based
// ordering's relative advantage must shrink as coupling grows.
func CorrelationSweep(opt Options, couplings []float64) ([]CorrelationCell, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if len(couplings) == 0 {
		couplings = []float64{0, 0.25, 0.5, 0.75, 1.0}
	}
	spec := dataset.Table3()[0]
	v := int(float64(spec.Vertices) * opt.Scale)
	e := int(float64(spec.Edges) * opt.Scale)
	if v < 10 {
		v = 10
	}
	if e < spec.Labels {
		e = spec.Labels
	}

	var out []CorrelationCell
	for _, coupling := range couplings {
		model := &dataset.CorrelatedLabels{
			Zipf:     dataset.NewZipfLabels(spec.Labels, 1.1),
			Coupling: coupling,
		}
		g := dataset.PreferentialAttachment(v, e, model, opt.Seed).Freeze()
		census := paths.NewCensusHybrid(g, 3, paths.CensusOptions{})
		beta := budget(census, 16)
		for _, method := range ordering.PaperMethods() {
			ph, err := histogram(g, census, method, core.BuilderVOptimal, beta)
			if err != nil {
				return nil, err
			}
			out = append(out, CorrelationCell{
				Coupling: coupling, Method: method, Beta: beta,
				MeanErrorRate: core.Evaluate(ph, census).MeanErrorRate,
			})
		}
	}
	return out, nil
}

// SumBasedAdvantage reduces a CorrelationSweep to, per coupling value, the
// ratio (best non-sum-based error) / (sum-based error) — > 1 means
// sum-based wins, and the paper's explanation predicts the ratio falls
// toward 1 as coupling grows.
func SumBasedAdvantage(cells []CorrelationCell) map[float64]float64 {
	type agg struct {
		sum  float64
		best float64
	}
	byCoupling := map[float64]*agg{}
	for _, c := range cells {
		a := byCoupling[c.Coupling]
		if a == nil {
			a = &agg{best: -1}
			byCoupling[c.Coupling] = a
		}
		if c.Method == ordering.MethodSumBased {
			a.sum = c.MeanErrorRate
		} else if a.best < 0 || c.MeanErrorRate < a.best {
			a.best = c.MeanErrorRate
		}
	}
	out := map[float64]float64{}
	for coupling, a := range byCoupling {
		if a.sum > 0 {
			out[coupling] = a.best / a.sum
		} else {
			out[coupling] = 1
		}
	}
	return out
}

func correlationTable(cells []CorrelationCell) *Table {
	t := &Table{Name: "correlation", Title: "Correlation sweep: label–degree coupling vs mean error rate (Moreno family, k=3)",
		Header: []string{"coupling", "method", "beta", "mean_error_rate"}}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{fixed(c.Coupling, 2), c.Method, strconv.Itoa(c.Beta), fixed(c.MeanErrorRate, 6)})
	}
	return t
}

// advantageTable is SumBasedAdvantage in sweep order, one row per coupling.
func advantageTable(cells []CorrelationCell) *Table {
	t := &Table{Name: "advantage", Title: "Sum-based advantage: best rival error / sum-based error (> 1: sum-based wins)",
		Header: []string{"coupling", "sum_based_advantage"}}
	adv := SumBasedAdvantage(cells)
	for i, c := range cells {
		if i == 0 || c.Coupling != cells[i-1].Coupling {
			t.Rows = append(t.Rows, []string{fixed(c.Coupling, 2), fixed(adv[c.Coupling], 4)})
		}
	}
	return t
}
