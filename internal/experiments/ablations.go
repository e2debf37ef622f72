package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/ordering"
)

// AblationCell is one (ordering, builder) accuracy measurement.
type AblationCell struct {
	Method        string
	Builder       string
	Beta          int
	MeanErrorRate float64
}

// BuilderAblation goes beyond the paper: it crosses the five ordering
// methods with every histogram builder at a fixed budget, isolating how
// much accuracy comes from the ordering versus the bucketing algorithm.
// Dataset: Moreno Health substitute at opt.Scale, k = 3.
func BuilderAblation(opt Options) ([]AblationCell, error) {
	m, err := newMoreno(opt)
	if err != nil {
		return nil, err
	}
	builders := []string{core.BuilderVOptimal, core.BuilderEquiWidth,
		core.BuilderEquiDepth, core.BuilderMaxDiff, core.BuilderEndBiased}
	var out []AblationCell
	for _, method := range ordering.PaperMethods() {
		for _, builder := range builders {
			ph, err := histogram(m.g, m.census, method, builder, m.beta)
			if err != nil {
				return nil, err
			}
			out = append(out, AblationCell{
				Method: method, Builder: builder, Beta: m.beta,
				MeanErrorRate: core.Evaluate(ph, m.census).MeanErrorRate,
			})
		}
	}
	return out, nil
}

func ablationTable(cells []AblationCell) *Table {
	t := &Table{Name: "ablation", Title: "Ablation: mean error rate by ordering × histogram builder (Moreno, k=3)",
		Header: []string{"method", "builder", "beta", "mean_error_rate"}}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{c.Method, c.Builder, strconv.Itoa(c.Beta), fixed(c.MeanErrorRate, 6)})
	}
	return t
}

// ProfileRow is one (method, axis, bucket) row of the error-profile study.
type ProfileRow struct {
	Method string
	// Axis is "length" or "decile".
	Axis          string
	Bucket        int
	Paths         int64
	MeanErrorRate float64
}

// ErrorProfiles runs the diagnostic decomposition of estimation error
// (by path length and by true-selectivity decile) for every ordering
// method on the Moreno Health substitute at k = 3 — the analysis lens of
// the thesis underlying the paper.
func ErrorProfiles(opt Options) ([]ProfileRow, error) {
	m, err := newMoreno(opt)
	if err != nil {
		return nil, err
	}
	var out []ProfileRow
	for _, method := range ordering.PaperMethods() {
		ph, err := histogram(m.g, m.census, method, core.BuilderVOptimal, m.beta)
		if err != nil {
			return nil, err
		}
		prof := core.Profile(ph, m.census)
		for _, lb := range prof.ByLength {
			out = append(out, ProfileRow{
				Method: method, Axis: "length", Bucket: lb.Length,
				Paths: lb.Paths, MeanErrorRate: lb.MeanErrorRate,
			})
		}
		for _, db := range prof.ByDecile {
			out = append(out, ProfileRow{
				Method: method, Axis: "decile", Bucket: db.Decile,
				Paths: db.Paths, MeanErrorRate: db.MeanErrorRate,
			})
		}
	}
	return out, nil
}

func profileTable(rows []ProfileRow) *Table {
	t := &Table{Name: "profile", Title: "Error profile: mean error rate by path length and selectivity decile (Moreno, k=3)",
		Header: []string{"method", "axis", "bucket", "paths", "mean_error_rate"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Method, r.Axis, strconv.Itoa(r.Bucket),
			strconv.FormatInt(r.Paths, 10), fixed(r.MeanErrorRate, 6)})
	}
	return t
}

// BoundCell is one row of the ordering upper/lower bound study.
type BoundCell struct {
	Method        string
	Beta          int
	MeanErrorRate float64
}

// OrderingBounds extends Figure 2 with the paper's impractical "ideal"
// ordering (accuracy lower envelope), the concluding remarks' sum-L2
// base-set ordering, and the product ordering, on the Moreno Health
// substitute at k = 3.
func OrderingBounds(opt Options) ([]BoundCell, error) {
	m, err := newMoreno(opt)
	if err != nil {
		return nil, err
	}
	census, k := m.census, m.census.K()
	ords := make([]ordering.Ordering, 0, 8)
	for _, method := range ordering.PaperMethods() {
		ord, err := ordering.ForGraph(method, m.g, k)
		if err != nil {
			return nil, err
		}
		ords = append(ords, ord)
	}
	ords = append(ords,
		ordering.NewIdeal(census),
		ordering.NewSumL2(census),
		ordering.NewProduct(census.LabelFrequencies(), k))

	var out []BoundCell
	for _, beta := range opt.betas(census.Size()) {
		for _, ord := range ords {
			ph, err := core.Build(census, ord, core.BuilderVOptimal, beta)
			if err != nil {
				return nil, err
			}
			out = append(out, BoundCell{
				Method: ord.Name(), Beta: beta, MeanErrorRate: core.Evaluate(ph, census).MeanErrorRate,
			})
		}
	}
	return out, nil
}

func boundsTable(cells []BoundCell) *Table {
	t := &Table{Name: "bounds", Title: "Bounds: paper orderings vs ideal, sum-L2 and product (Moreno, k=3, V-Optimal)",
		Header: []string{"beta", "method", "mean_error_rate"}}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{strconv.Itoa(c.Beta), c.Method, fixed(c.MeanErrorRate, 6)})
	}
	return t
}
