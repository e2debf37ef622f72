// Package experiments reproduces the paper's evaluation: the §3.4 worked
// example (Tables 1–2), the Figure 1 distribution visualization, the
// Table 3 dataset inventory, the Table 4 estimation-time study, and the
// Figure 2 accuracy study, plus ablations beyond the paper (histogram
// builder comparison, ideal-ordering bound, sum-L2 base sets).
//
// Every experiment takes an Options value; DefaultOptions runs at reduced
// dataset scale so the full suite finishes in seconds (same code paths,
// smaller graphs — see internal/dataset), while PaperOptions matches the published
// parameters.
//
// Every result yields Tables, and one Table type both prints them and
// writes them as CSV. One registry, Experiments, drives cmd/experiments —
// whose -csv writes every table — and the golden gate, which pins every
// table but Table 4's timings.
//
// In the layer map (graph → bitset → paths → exec → pathsel) this is the
// evaluation harness over the top: it drives every layer end to end
// (censuses, histograms, planners, executors). It measures accuracy and
// plan quality only; speed is measured by bench/ (see bench/README.md).
package experiments

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/ordering"
	"repro/internal/paths"
)

// Options parameterizes the experiment suite.
type Options struct {
	// Scale shrinks every Table 3 dataset proportionally, in (0, 1].
	Scale float64
	// Seed drives all dataset generation and query sampling.
	Seed int64
	// TimingK is the path length bound of the Table 4 timing study
	// (paper: 6).
	TimingK int
	// AccuracyKs are the path length bounds swept by Figure 2.
	AccuracyKs []int
	// BetaDenoms derive bucket budgets as β = |Lk|/d for each denominator
	// d (paper: 2, 4, 8, 16, 32, 64, 128).
	BetaDenoms []int
	// Queries is the number of estimation calls timed per Table 4 cell.
	Queries int
	// Repeats is the number of timing repetitions averaged (paper: 100).
	Repeats int
	// Datasets optionally restricts multi-dataset experiments (Figure 2,
	// Table 3) to the named Table 3 rows; nil means all four.
	Datasets []string
}

// wantDataset reports whether the named dataset is selected.
func (o Options) wantDataset(name string) bool {
	return len(o.Datasets) == 0 || slices.Contains(o.Datasets, name)
}

// DefaultOptions returns the fast reduced-scale configuration.
func DefaultOptions() Options {
	return Options{
		Scale:      0.04,
		Seed:       1,
		TimingK:    4,
		AccuracyKs: []int{2, 3},
		BetaDenoms: []int{2, 8, 32, 128},
		Queries:    2000,
		Repeats:    3,
	}
}

// PaperOptions returns the published experiment parameters. The full
// Figure 2 sweep at this setting recomputes exact selectivities of up to
// |L8|=k6 censuses on ~200k-edge graphs — expect minutes, not seconds:
// `experiments -exp figure2 -full` took 540 s on a shared 2-CPU host.
func PaperOptions() Options {
	return Options{
		Scale:      1.0,
		Seed:       1,
		TimingK:    6,
		AccuracyKs: []int{2, 3, 4, 5, 6},
		BetaDenoms: []int{2, 4, 8, 16, 32, 64, 128},
		Queries:    10000,
		Repeats:    100,
	}
}

// validate rejects options no experiment can run. Its errors carry no
// package prefix: cmd/experiments, the one caller that prints them, adds
// its own.
func (o Options) validate() error {
	if !(o.Scale > 0 && o.Scale <= 1) { // NaN too
		return fmt.Errorf("scale %v out of (0,1]", o.Scale)
	}
	if o.TimingK < 1 || o.Queries < 1 || o.Repeats < 1 {
		return fmt.Errorf("non-positive timing parameters %+v", o)
	}
	if len(o.AccuracyKs) == 0 || len(o.BetaDenoms) == 0 {
		return fmt.Errorf("empty sweep lists")
	}
	if slices.Min(o.AccuracyKs) < 1 || slices.Min(o.BetaDenoms) < 1 {
		return fmt.Errorf("non-positive sweep entries: path length bounds %v, budget denominators %v", o.AccuracyKs, o.BetaDenoms)
	}
	known := map[string]bool{}
	var names []string
	for _, spec := range dataset.Table3() {
		known[spec.Name] = true
		names = append(names, fmt.Sprintf("%q", spec.Name))
	}
	for _, d := range o.Datasets {
		if !known[d] {
			return fmt.Errorf("unknown dataset %q (Table 3 has %s)", d, strings.Join(names, ", "))
		}
	}
	return nil
}

// betas derives the bucket budgets for a domain of size n, dropping
// degenerate (< 1) entries.
func (o Options) betas(n int64) []int {
	var out []int
	for _, d := range o.BetaDenoms {
		b := int(n / int64(d))
		if b >= 1 {
			out = append(out, b)
		}
	}
	return out
}

// budget is the bucket budget |Lk|/d of census, at least 2.
func budget(census *paths.Census, d int64) int { return max(2, int(census.Size()/d)) }

// moreno is the fixture of every study on the Moreno Health substitute at
// k = 3 (Figure 1, the ablations, workload accuracy and plan quality): the
// graph at opt.Scale, its census and the budget β = |L3|/16, which all but
// Figure 1 use.
type moreno struct {
	g      *graph.CSR
	census *paths.Census
	beta   int
}

func newMoreno(opt Options) (moreno, error) {
	if err := opt.validate(); err != nil {
		return moreno{}, err
	}
	g := dataset.Generate(dataset.Table3()[0], opt.Scale, opt.Seed).Freeze()
	census := paths.NewCensusHybrid(g, 3, paths.CensusOptions{})
	return moreno{g, census, budget(census, 16)}, nil
}

// histogram builds method's ordering of g's paths up to census.K() and a
// histogram of beta buckets over census by builder.
func histogram(g *graph.CSR, census *paths.Census, method, builder string, beta int) (*core.PathHistogram, error) {
	ord, err := ordering.ForGraph(method, g, census.K())
	if err != nil {
		return nil, err
	}
	return core.Build(census, ord, builder, beta)
}

// samplePaths draws q uniform random label paths from the domain of ord.
func samplePaths(ord ordering.Ordering, q int, seed int64) []paths.Path {
	rng := rand.New(rand.NewSource(seed))
	out := make([]paths.Path, q)
	for i := range out {
		out[i] = ord.Path(rng.Int63n(ord.Size()))
	}
	return out
}

// Table4Result is the estimation-time study: average per-query estimation
// latency for each ordering method at each bucket budget.
type Table4Result struct {
	Dataset    string
	K          int
	DomainSize int64
	Methods    []string
	Rows       []Table4Row
}

// Table4Row is one β row of Table 4.
type Table4Row struct {
	Beta int
	// AvgMicros[method] is the mean per-estimate latency in microseconds.
	// (The paper reports milliseconds for its Java implementation; shape,
	// not absolute scale, is the reproduction target.)
	AvgMicros map[string]float64
}

// RunTable4 reproduces Table 4: V-Optimal histograms for the five ordering
// methods on the Moreno Health dataset, estimation latency vs β.
func RunTable4(opt Options) (*Table4Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	spec := dataset.Table3()[0] // Moreno health
	g := dataset.Generate(spec, opt.Scale, opt.Seed).Freeze()
	census := paths.NewCensusHybrid(g, opt.TimingK, paths.CensusOptions{})

	res := &Table4Result{
		Dataset:    spec.Name,
		K:          opt.TimingK,
		DomainSize: census.Size(),
		Methods:    ordering.PaperMethods(),
	}
	for _, beta := range opt.betas(census.Size()) {
		row := Table4Row{Beta: beta, AvgMicros: map[string]float64{}}
		for _, method := range res.Methods {
			ph, err := histogram(g, census, method, core.BuilderVOptimal, beta)
			if err != nil {
				return nil, err
			}
			queries := samplePaths(ph.Ordering(), opt.Queries, opt.Seed+int64(beta))
			var total time.Duration
			for r := 0; r < opt.Repeats; r++ {
				start := time.Now()
				for _, q := range queries {
					_ = ph.Estimate(q)
				}
				total += time.Since(start)
			}
			perQuery := total / time.Duration(opt.Repeats*len(queries))
			row.AvgMicros[method] = float64(perQuery.Nanoseconds()) / 1e3
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Figure2Cell is one point of the Figure 2 accuracy study.
type Figure2Cell struct {
	Dataset string
	K       int
	Beta    int
	Method  string
	// MeanErrorRate is the mean |err(ℓ)| (Eq. 6) over all ℓ ∈ Lk.
	MeanErrorRate float64
}

// Figure2Result is the full accuracy sweep.
type Figure2Result struct {
	Methods []string
	Cells   []Figure2Cell
}

// Cell returns the cell for (dataset, k, beta, method), or nil.
func (r *Figure2Result) Cell(ds string, k, beta int, method string) *Figure2Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Dataset == ds && c.K == k && c.Beta == beta && c.Method == method {
			return c
		}
	}
	return nil
}

// RunFigure2 reproduces Figure 2: mean error rate of V-Optimal estimation
// under each ordering method, across datasets, path length bounds and
// bucket budgets.
func RunFigure2(opt Options) (*Figure2Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	res := &Figure2Result{Methods: ordering.PaperMethods()}
	for _, spec := range dataset.Table3() {
		if !opt.wantDataset(spec.Name) {
			continue
		}
		g := dataset.Generate(spec, opt.Scale, opt.Seed).Freeze()
		// One census per dataset: every smaller k's is a prefix of it.
		full := paths.NewCensusHybrid(g, slices.Max(opt.AccuracyKs), paths.CensusOptions{})
		for _, k := range opt.AccuracyKs {
			census := full.Restrict(k)
			for _, beta := range opt.betas(census.Size()) {
				for _, method := range res.Methods {
					ph, err := histogram(g, census, method, core.BuilderVOptimal, beta)
					if err != nil {
						return nil, err
					}
					ev := core.Evaluate(ph, census)
					res.Cells = append(res.Cells, Figure2Cell{
						Dataset: spec.Name, K: k, Beta: beta,
						Method: method, MeanErrorRate: ev.MeanErrorRate,
					})
				}
			}
		}
	}
	return res, nil
}

// Figure1Result is the Figure 1 visualization data: the Moreno Health
// label-path distribution in num-alph order with an equi-width histogram
// over it.
type Figure1Result struct {
	Dataset     string
	K           int
	Labels      []string // path keys in domain order
	Frequencies []int64
	BucketMeans []float64 // per domain position, the equi-width estimate
	Beta        int
}

// RunFigure1 reproduces Figure 1 (k = 3 on Moreno Health, equi-width
// histogram over the num-alph domain). Beta is chosen as |Lk|/8 to make
// the staircase visible at any scale.
func RunFigure1(opt Options) (*Figure1Result, error) {
	m, err := newMoreno(opt)
	if err != nil {
		return nil, err
	}
	census := m.census
	beta := budget(census, 8)
	ph, err := histogram(m.g, census, ordering.MethodNumAlph, core.BuilderEquiWidth, beta)
	if err != nil {
		return nil, err
	}
	ord := ph.Ordering()
	res := &Figure1Result{Dataset: dataset.Table3()[0].Name, K: census.K(), Beta: beta}
	data := core.DomainVector(census, ord)
	for idx := int64(0); idx < ord.Size(); idx++ {
		res.Labels = append(res.Labels, ord.Path(idx).String(m.g))
		res.Frequencies = append(res.Frequencies, data[idx])
		res.BucketMeans = append(res.BucketMeans, ph.Estimator().Estimate(idx))
	}
	return res, nil
}

// Table3Row reports the measured statistics of one generated dataset.
type Table3Row struct {
	Spec             dataset.Spec
	MeasuredVertices int
	MeasuredEdges    int
	MeasuredLabels   int
}

// RunTable3 regenerates the four datasets at the configured scale and
// reports their measured statistics alongside the published ones.
func RunTable3(opt Options) ([]Table3Row, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, spec := range dataset.Table3() {
		if !opt.wantDataset(spec.Name) {
			continue
		}
		g := dataset.Generate(spec, opt.Scale, opt.Seed)
		rows = append(rows, Table3Row{
			Spec:             spec,
			MeasuredVertices: g.NumVertices(),
			MeasuredEdges:    g.NumEdges(),
			MeasuredLabels:   g.NumLabels(),
		})
	}
	return rows, nil
}

func table3Table(rows []Table3Row) *Table {
	t := &Table{Name: "table3", Title: "Table 3: datasets (published → measured at current scale)",
		Header: []string{"dataset", "labels", "vertices_published", "vertices", "edges_published", "edges", "real_world"}}
	for _, r := range rows {
		real := "no"
		if r.Spec.RealWorld {
			real = "yes"
		}
		t.Rows = append(t.Rows, []string{r.Spec.Name, strconv.Itoa(r.MeasuredLabels),
			strconv.Itoa(r.Spec.Vertices), strconv.Itoa(r.MeasuredVertices),
			strconv.Itoa(r.Spec.Edges), strconv.Itoa(r.MeasuredEdges), real})
	}
	return t
}

// Tables12Result is the §3.4 worked example.
type Tables12Result struct {
	// SummedRanks maps each path key to its cardinality-ranking summed
	// rank (Table 1).
	SummedRanks map[string]int64
	// Orderings maps each method to its domain row (Table 2).
	Orderings map[string][]string
}

// RunTables12 reproduces the worked example: 3 labels with cardinalities
// 20, 100, 80 and k = 2.
func RunTables12() *Tables12Result {
	names := []string{"1", "2", "3"}
	freq := []int64{20, 100, 80}
	k := 2
	alph := ordering.AlphabeticalRanking(names)
	card := ordering.CardinalityRanking(freq)

	res := &Tables12Result{
		SummedRanks: map[string]int64{},
		Orderings:   map[string][]string{},
	}
	all := []paths.Path{}
	for l := 0; l < 3; l++ {
		all = append(all, paths.Path{l})
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			all = append(all, paths.Path{a, b})
		}
	}
	for _, p := range all {
		var sum int64
		for _, l := range p {
			sum += card.Rank(l)
		}
		res.SummedRanks[p.Key()] = sum
	}
	ords := map[string]ordering.Ordering{
		ordering.MethodNumAlph:  ordering.NewNumerical(alph, k),
		ordering.MethodNumCard:  ordering.NewNumerical(card, k),
		ordering.MethodLexAlph:  ordering.NewLexicographic(alph, k),
		ordering.MethodLexCard:  ordering.NewLexicographic(card, k),
		ordering.MethodSumBased: ordering.NewSumBased(card, k),
	}
	for name, ord := range ords {
		row := make([]string, ord.Size())
		for idx := int64(0); idx < ord.Size(); idx++ {
			row[idx] = ord.Path(idx).Key()
		}
		res.Orderings[name] = row
	}
	return res
}

// Tables lays the worked example out in the paper's Table 1 and Table 2
// forms: one column per path key, and one row per method.
func (r *Tables12Result) Tables() []*Table {
	t1 := &Table{Name: "table1", Title: "Table 1: summed ranks (labels 1,2,3 with f = 20,100,80; cardinality ranking)"}
	for key := range r.SummedRanks {
		t1.Header = append(t1.Header, key)
	}
	slices.SortFunc(t1.Header, func(a, b string) int { return cmp.Or(len(a)-len(b), strings.Compare(a, b)) })
	row := make([]string, len(t1.Header))
	for i, key := range t1.Header {
		row[i] = strconv.FormatInt(r.SummedRanks[key], 10)
	}
	t1.Rows = [][]string{row}

	t2 := &Table{Name: "table2", Title: "Table 2: ordered label paths per method", Header: []string{"method"}}
	for m, keys := range r.Orderings {
		t2.Rows = append(t2.Rows, append([]string{m}, keys...))
	}
	slices.SortFunc(t2.Rows, func(a, b []string) int { return strings.Compare(a[0], b[0]) })
	for i := range t2.Rows[0][1:] {
		t2.Header = append(t2.Header, strconv.Itoa(i))
	}
	return []*Table{t1, t2}
}
