package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ordering"
	"repro/internal/paths"
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	g := dataset.Generate(dataset.Table3()[0], opt.Scale, opt.Seed).Freeze()
	k := 3
	census := paths.NewCensusHybrid(g, k, paths.CensusOptions{})
	beta := int(census.Size() / 16)
	if beta < 2 {
		beta = 2
	}
	builders := []string{core.BuilderVOptimal, core.BuilderEquiWidth,
		core.BuilderEquiDepth, core.BuilderMaxDiff, core.BuilderEndBiased}
	var out []AblationCell
	for _, method := range ordering.PaperMethods() {
		ord, err := ordering.ForGraph(method, g, k)
		if err != nil {
			return nil, err
		}
		for _, builder := range builders {
			ph, err := core.Build(census, ord, builder, beta)
			if err != nil {
				return nil, err
			}
			ev := core.Evaluate(ph, census)
			out = append(out, AblationCell{
				Method: method, Builder: builder, Beta: beta,
				MeanErrorRate: ev.MeanErrorRate,
			})
		}
	}
	return out, nil
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	g := dataset.Generate(dataset.Table3()[0], opt.Scale, opt.Seed).Freeze()
	k := 3
	census := paths.NewCensusHybrid(g, k, paths.CensusOptions{})
	beta := int(census.Size() / 16)
	if beta < 2 {
		beta = 2
	}
	var out []ProfileRow
	for _, method := range ordering.PaperMethods() {
		ord, err := ordering.ForGraph(method, g, k)
		if err != nil {
			return nil, err
		}
		ph, err := core.Build(census, ord, core.BuilderVOptimal, beta)
		if err != nil {
			return nil, err
		}
		prof := core.Profile(ph, census)
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	g := dataset.Generate(dataset.Table3()[0], opt.Scale, opt.Seed).Freeze()
	k := 3
	census := paths.NewCensusHybrid(g, k, paths.CensusOptions{})

	ords := make([]ordering.Ordering, 0, 8)
	for _, method := range ordering.PaperMethods() {
		ord, err := ordering.ForGraph(method, g, k)
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
			ev := core.Evaluate(ph, census)
			out = append(out, BoundCell{
				Method: ord.Name(), Beta: beta, MeanErrorRate: ev.MeanErrorRate,
			})
		}
	}
	return out, nil
}
