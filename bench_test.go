// Package repro_test is the benchmark harness of the reproduction: one
// benchmark per table and figure of the paper (internal/experiments is
// the experiment index), plus ablation benches for the design choices
// internal/experiments/ablations.go isolates.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Accuracy benches report the paper's metric as the custom unit
// "err_rate/op" (mean |err(ℓ)| of Eq. 6); timing benches report the usual
// ns/op. Fixtures run at reduced dataset scale (same code paths, smaller
// graphs — see internal/dataset); the cmd/experiments binary with -full reproduces
// the published parameters.
package repro_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/histogram"
	"repro/internal/oracle"
	"repro/internal/ordering"
	"repro/internal/paths"
	"repro/internal/relcache"
	"repro/pathsel"
)

// fixture caches a generated graph and its census per (dataset, k, scale).
type fixture struct {
	g      *graph.CSR
	census *paths.Census
}

var (
	fixMu  sync.Mutex
	fixMap = map[string]*fixture{}
)

func getFixture(b *testing.B, specIdx, k int, scale float64) *fixture {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%v", specIdx, k, scale)
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixMap[key]; ok {
		return f
	}
	g := dataset.Generate(dataset.Table3()[specIdx], scale, 1).Freeze()
	f := &fixture{g: g, census: oracle.NewCensus(g, k)}
	fixMap[key] = f
	return f
}

// BenchmarkTable2Orderings pins the §3.4 worked example (Tables 1 and 2):
// it measures rank+unrank round trips over the 12-path example domain for
// each ordering method and verifies the Table 2 layout on every run.
func BenchmarkTable2Orderings(b *testing.B) {
	names := []string{"1", "2", "3"}
	freq := []int64{20, 100, 80}
	alph := ordering.AlphabeticalRanking(names)
	card := ordering.CardinalityRanking(freq, names)
	ords := map[string]ordering.Ordering{
		ordering.MethodNumAlph:  ordering.NewNumerical(alph, 2),
		ordering.MethodNumCard:  ordering.NewNumerical(card, 2),
		ordering.MethodLexAlph:  ordering.NewLexicographic(alph, 2),
		ordering.MethodLexCard:  ordering.NewLexicographic(card, 2),
		ordering.MethodSumBased: ordering.NewSumBased(card, 2),
	}
	for _, method := range ordering.PaperMethods() {
		ord := ords[method]
		b.Run(method, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for idx := int64(0); idx < ord.Size(); idx++ {
					p := ord.Path(idx)
					if ord.Index(p) != idx {
						b.Fatal("bijection violated")
					}
				}
			}
		})
	}
}

// BenchmarkFigure1Distribution regenerates the Figure 1 data: the Moreno
// Health k=3 distribution in num-alph order with an equi-width histogram
// over it.
func BenchmarkFigure1Distribution(b *testing.B) {
	f := getFixture(b, 0, 3, 0.1)
	ord, err := ordering.ForGraph(ordering.MethodNumAlph, f.g, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := core.DomainVector(f.census, ord)
		h := histogram.EquiWidth(data, int(f.census.Size()/8))
		if h.Buckets() < 1 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkTable3Datasets measures generation of each Table 3 dataset at
// reduced scale — the substrate cost of every other experiment.
func BenchmarkTable3Datasets(b *testing.B) {
	for _, spec := range dataset.Table3() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := dataset.Generate(spec, 0.05, int64(i))
				if g.NumEdges() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkTable4EstimationTime reproduces Table 4: per-query estimation
// latency of a V-Optimal label-path histogram for each ordering method at
// each bucket budget (β = |Lk|/2^i). The paper's shape targets: sum-based
// is the slowest method (costlier (un)ranking), and latency shrinks as β
// falls (cheaper bucket search).
func BenchmarkTable4EstimationTime(b *testing.B) {
	const k = 4 // paper: 6; reduced so the fixture builds in seconds
	f := getFixture(b, 0, k, 0.1)
	for _, denom := range []int{2, 8, 32, 128} {
		beta := int(f.census.Size() / int64(denom))
		if beta < 1 {
			beta = 1
		}
		for _, method := range ordering.PaperMethods() {
			ord, err := ordering.ForGraph(method, f.g, k)
			if err != nil {
				b.Fatal(err)
			}
			ph, err := core.Build(f.census, ord, core.BuilderVOptimal, beta)
			if err != nil {
				b.Fatal(err)
			}
			queries := make([]paths.Path, 1024)
			rng := rand.New(rand.NewSource(7))
			for i := range queries {
				queries[i] = ord.Path(rng.Int63n(ord.Size()))
			}
			b.Run(fmt.Sprintf("beta=%d/%s", beta, method), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = ph.Estimate(queries[i%len(queries)])
				}
			})
		}
	}
}

// BenchmarkFigure2Accuracy reproduces Figure 2: it builds a V-Optimal
// histogram per (dataset, method) at a fixed reduced budget and reports
// the mean error rate as err_rate/op alongside construction time. The
// shape target: sum-based reports the lowest err_rate on every dataset,
// with the largest margins on the synthetic datasets.
func BenchmarkFigure2Accuracy(b *testing.B) {
	const k = 3
	for specIdx, spec := range dataset.Table3() {
		f := getFixture(b, specIdx, k, 0.03)
		beta := int(f.census.Size() / 16)
		if beta < 2 {
			beta = 2
		}
		for _, method := range ordering.PaperMethods() {
			ord, err := ordering.ForGraph(method, f.g, k)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", spec.Name, method), func(b *testing.B) {
				var ev core.Evaluation
				for i := 0; i < b.N; i++ {
					ph, err := core.Build(f.census, ord, core.BuilderVOptimal, beta)
					if err != nil {
						b.Fatal(err)
					}
					ev = core.Evaluate(ph, f.census)
				}
				b.ReportMetric(ev.MeanErrorRate, "err_rate/op")
			})
		}
	}
}

// BenchmarkAblationBuilders compares histogram construction algorithms on
// the same sum-based domain — the ablation of "how much is the bucketing
// algorithm vs the ordering" (internal/experiments' BuilderAblation).
func BenchmarkAblationBuilders(b *testing.B) {
	const k = 3
	f := getFixture(b, 0, k, 0.1)
	ord, err := ordering.ForGraph(ordering.MethodSumBased, f.g, k)
	if err != nil {
		b.Fatal(err)
	}
	data := core.DomainVector(f.census, ord)
	beta := len(data) / 16
	builders := map[string]func([]int64, int) *histogram.Histogram{
		"v-optimal":  histogram.VOptimal,
		"equi-width": histogram.EquiWidth,
		"equi-depth": histogram.EquiDepth,
		"max-diff":   histogram.MaxDiff,
	}
	for _, name := range []string{"v-optimal", "equi-width", "equi-depth", "max-diff"} {
		build := builders[name]
		b.Run(name, func(b *testing.B) {
			var sse float64
			for i := 0; i < b.N; i++ {
				h := build(data, beta)
				sse = totalSSE(h)
			}
			b.ReportMetric(sse, "sse/op")
		})
	}
}

// BenchmarkOrderingIndex isolates the (un)ranking function cost per
// ordering method — the mechanism behind Table 4's "sum-based ≈ 20%
// slower" row (the paper's O(k) native vs O(log(|L|)^k) sum-based
// complexity claim).
func BenchmarkOrderingIndex(b *testing.B) {
	const k = 6
	f := getFixture(b, 0, 2, 0.1) // graph only used for rankings
	for _, method := range ordering.PaperMethods() {
		ord, err := ordering.ForGraph(method, f.g, k)
		if err != nil {
			b.Fatal(err)
		}
		queries := make([]paths.Path, 1024)
		rng := rand.New(rand.NewSource(3))
		for i := range queries {
			queries[i] = ord.Path(rng.Int63n(ord.Size()))
		}
		b.Run("Index/"+method, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ord.Index(queries[i%len(queries)])
			}
		})
		b.Run("Unrank/"+method, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ord.Path(int64(i) % ord.Size())
			}
		})
	}
}

// BenchmarkCompile measures what an optimiser pays per query it consults
// the histogram about — parse, the k(k+1)/2 − 1 segment estimates, the
// zig-zag spread and the plan-tree DP — at the paper's k = 6 with sum-based +
// V-Optimal: the estimate_stream workload's operation, here with
// allocations counted. An RPQ's estimate also sums the histogram over its
// expansions: at most 72 of them under rpq, and 9 324 under rpq-wide
// (`a/*{1,2}/*{1,3}` over 6 labels), the regime where expanding the
// pattern and indexing its paths is nearly all of the cost.
func BenchmarkCompile(b *testing.B) {
	const k = 6
	g, err := pathsel.GenerateDataset("Moreno health", 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	est, err := pathsel.Build(g, pathsel.Config{MaxPathLength: k, Buckets: 1024})
	if err != nil {
		b.Fatal(err)
	}
	labels := g.Labels()
	rng := rand.New(rand.NewSource(5))
	label := func() string { return labels[rng.Intn(len(labels))] }
	concrete := make([]string, 256)
	for i := range concrete {
		segs := make([]string, k)
		for j := range segs {
			segs[j] = label()
		}
		concrete[i] = strings.Join(segs, "/")
	}
	rpq := make([]string, 256)
	for i := range rpq {
		rpq[i] = fmt.Sprintf("%s/(%s|%s){1,2}/%s?/*", label(), label(), label(), label())
	}
	wide := make([]string, 64)
	for i := range wide {
		wide[i] = fmt.Sprintf("%s/*{1,2}/*{1,3}", label())
	}
	for _, c := range []struct {
		name    string
		queries []string
	}{{"concrete/k=6", concrete}, {"rpq", rpq}, {"rpq-wide", wide}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.Compile(c.queries[i%len(c.queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCensus measures the exact selectivity engine — the substrate
// every experiment pays once per (dataset, k): the reference census, which
// builds every path's relation, and under count/ the production engine on
// one worker, which only counts the deepest level (|L|^k of the paths).
// The last two are the censuses the benchmark workloads' set-up builds,
// on their graphs (dataset seed 1), at one worker with allocations
// reported: estimate_stream's Moreno health 1.0 at k = 6 and
// exec_uncached's SNAP-ER 0.5 at k = 4.
func BenchmarkCensus(b *testing.B) {
	g := dataset.Generate(dataset.Table3()[0], 0.1, 1).Freeze()
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("moreno/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := oracle.NewCensus(g, k)
				if censusTotal(c) == 0 {
					b.Fatal("empty census")
				}
			}
		})
		b.Run(fmt.Sprintf("count/moreno/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := paths.NewCensusHybrid(g, k, paths.CensusOptions{Workers: 1})
				if censusTotal(c) == 0 {
					b.Fatal("empty census")
				}
			}
		})
	}
	for _, w := range []struct {
		name  string
		spec  int
		scale float64
		k     int
	}{
		{"estimate_stream/moreno-1.0/k=6", 0, 1.0, 6},
		{"exec_uncached/snap-er-0.5/k=4", 2, 0.5, 4},
	} {
		b.Run(w.name, func(b *testing.B) {
			g := dataset.Generate(dataset.Table3()[w.spec], w.scale, 1).Freeze()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := paths.NewCensusHybrid(g, w.k, paths.CensusOptions{Workers: 1})
				if censusTotal(c) == 0 {
					b.Fatal("empty census")
				}
			}
		})
	}
}

// BenchmarkCensusParallel compares the sequential and parallel selectivity
// engines — the scale lever for paper-size runs.
func BenchmarkCensusParallel(b *testing.B) {
	g := dataset.Generate(dataset.Table3()[0], 0.15, 1).Freeze()
	const k = 3
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := paths.NewCensusHybrid(g, k, paths.CensusOptions{Workers: workers})
				if censusTotal(c) == 0 {
					b.Fatal("empty census")
				}
			}
		})
	}
}

// BenchmarkPrefixRangeQuery measures the prefix wildcard query path (lex
// ordering + histogram range query) against summing point estimates.
func BenchmarkPrefixRangeQuery(b *testing.B) {
	f := getFixture(b, 0, 4, 0.1)
	ord, err := ordering.ForGraph(ordering.MethodLexCard, f.g, 4)
	if err != nil {
		b.Fatal(err)
	}
	ph, err := core.Build(f.census, ord, core.BuilderVOptimal, int(f.census.Size()/16))
	if err != nil {
		b.Fatal(err)
	}
	prefix := paths.Path{0, 1}
	b.Run("range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ph.EstimatePrefix(prefix); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSynopsisCodec measures persistence round trips of the whole
// synopsis: label vocabulary and path histogram.
func BenchmarkSynopsisCodec(b *testing.B) {
	f := getFixture(b, 0, 3, 0.1)
	ord, err := ordering.ForGraph(ordering.MethodSumBased, f.g, 3)
	if err != nil {
		b.Fatal(err)
	}
	ph, err := core.Build(f.census, ord, core.BuilderVOptimal, 64)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, f.g.NumLabels())
	for l := range names {
		names[l] = f.g.LabelName(l)
	}
	var blob bytes.Buffer
	if err := core.WriteSynopsis(&blob, names, ph); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := core.WriteSynopsis(&buf, names, ph); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ReadSynopsis(bytes.NewReader(blob.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComposeKernels isolates one relational-composition step — the
// innermost operation of the census — on a Table 3 dataset relation,
// comparing the legacy dense row walk against the hybrid engine's scatter
// kernel with every row sparse, every row dense and rows at the default
// threshold, each in its materializing (hybrid-) and count-only (count-)
// form.
func BenchmarkComposeKernels(b *testing.B) {
	g := dataset.Generate(dataset.Table3()[3], 0.1, 1).Freeze() // SNAP-FF: sparse
	op := g.LabelOperand(0)
	b.Run("legacy-dense", func(b *testing.B) {
		rel := oracle.EdgeRelation(g, 0)
		succ := oracle.SuccessorSets(g, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = rel.Compose(succ)
		}
	})
	for _, regime := range []struct {
		name    string
		density float64
	}{
		{"sparse", 1.0}, // all rows sparse
		{"dense", 1e-9}, // all rows dense
		{"adaptive", 0}, // default promotion threshold
	} {
		rel := bitset.HybridFromCSR(op, regime.density)
		scr := bitset.NewComposeScratch(op.N)
		ops := []bitset.CSROperand{op}
		b.Run("hybrid-"+regime.name, func(b *testing.B) {
			dst := bitset.NewHybrid(op.N, regime.density)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel.ComposeInto(dst, op, scr)
			}
		})
		// The same accumulate work with nothing emitted: what a sink that
		// only reads the size pays.
		b.Run("count-"+regime.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, c := rel.Rows().ComposeShard(nil, ops, scr, bitset.SparseLimit(op.N, regime.density), 0, rel.Rows().Len(), nil); c.Pairs == 0 {
					b.Fatal("empty composition")
				}
			}
		})
	}
}

// execUncachedGraph is the graph of bench/'s exec_uncached workload (SNAP-ER
// at scale 0.5, 6 166 vertices), generated once for BenchmarkDenseSteps.
var execUncachedGraph = sync.OnceValue(func() *graph.CSR {
	return dataset.Generate(dataset.Table3()[2], 0.5, 1).Freeze()
})

// serveHotGraph is the graph of bench/'s serve_hot workload (SNAP-FF at
// scale 0.1, 5 000 vertices), generated once for BenchmarkWholeHit.
var serveHotGraph = sync.OnceValue(func() *graph.CSR {
	return dataset.Generate(dataset.Table3()[3], 0.1, 1).Freeze()
})

// BenchmarkDenseSteps is BenchmarkComposeKernels in the dense-row regime,
// on exec_uncached's graph at the default promotion threshold: `1/1`
// composed through label 1 — 192 165 pairs in, 1 057 857 out, a third of
// the output rows dense — built (compose) and counted (count), and `1/1`
// joined with `2/1` (join); there every left row is sparse. The
// dense-left-1 and dense-left-4 pairs start from `1/1/1` instead —
// 1 057 857 pairs, 2 267 of its 6 143 rows dense — through label 1
// (5 405 144 pairs out) and through label 4 (1 103 565 out): each set bit
// of a dense left row scatters its target's CSR row.
func BenchmarkDenseSteps(b *testing.B) {
	g := execUncachedGraph()
	n := g.NumVertices()
	left := paths.EvaluateWithDensity(g, paths.Path{0, 0}, 0)
	right := paths.EvaluateWithDensity(g, paths.Path{1, 0}, 0)
	ops := []bitset.CSROperand{g.LabelOperand(0)}
	scr, dst := bitset.NewComposeScratch(n), bitset.NewHybrid(n, 0)
	b.Run("compose", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			left.ComposeInto(dst, ops[0], scr)
		}
	})
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, c := left.Rows().ComposeShard(nil, ops, scr, bitset.SparseLimit(n, 0), 0, left.Rows().Len(), nil); c.Pairs == 0 {
				b.Fatal("empty composition")
			}
		}
	})
	deep := paths.EvaluateWithDensity(g, paths.Path{0, 0, 0}, 0)
	for _, l := range []int{0, 3} {
		through := []bitset.CSROperand{g.LabelOperand(l)}
		name := fmt.Sprintf("dense-left-%s/", g.LabelName(l))
		b.Run(name+"compose", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				deep.ComposeInto(dst, through[0], scr)
			}
		})
		b.Run(name+"count", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, c := deep.Rows().ComposeShard(nil, through, scr, bitset.SparseLimit(n, 0), 0, deep.Rows().Len(), nil); c.Pairs == 0 {
					b.Fatal("empty composition")
				}
			}
		})
	}
	b.Run("join", func(b *testing.B) {
		var buf []int32
		for i := 0; i < b.N; i++ {
			dst.Reset()
			var c bitset.Count
			buf, c = left.Rows().JoinShard(dst, right, scr, bitset.SparseLimit(n, 0), 0, left.Rows().Len(), buf)
			dst.AdoptShard(buf, c)
		}
	})
}

// BenchmarkCensusEngines compares the legacy allocating census against the
// pooled hybrid engine, single-worker, on the synthetic Table 3 datasets —
// the ISSUE 1 ≥3× target measured apples-to-apples (same graph, same k,
// parallelism taken out of the picture).
func BenchmarkCensusEngines(b *testing.B) {
	for _, specIdx := range []int{2, 3} { // SNAP-ER, SNAP-FF
		spec := dataset.Table3()[specIdx]
		g := dataset.Generate(spec, 0.05, 1).Freeze()
		const k = 3
		b.Run(spec.Name+"/legacy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := oracle.NewCensus(g, k)
				if censusTotal(c) == 0 {
					b.Fatal("empty census")
				}
			}
		})
		b.Run(spec.Name+"/hybrid", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := paths.NewCensusHybrid(g, k, paths.CensusOptions{Workers: 1})
				if censusTotal(c) == 0 {
					b.Fatal("empty census")
				}
			}
		})
	}
}

// BenchmarkCensusSkewedScaling measures worker scaling on a skewed-label
// workload — an Erdős–Rényi topology whose labels follow Zipf s=1.8, so
// one label carries most edges — the case where per-first-label
// parallelism load-imbalances and the work-stealing scheduler should not.
func BenchmarkCensusSkewedScaling(b *testing.B) {
	g := dataset.ErdosRenyi(600, 7000, dataset.NewZipfLabels(6, 1.8), 3).Freeze()
	const k = 3
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := paths.NewCensusHybrid(g, k, paths.CensusOptions{Workers: workers})
				if censusTotal(c) == 0 {
					b.Fatal("empty census")
				}
			}
		})
	}
}

// BenchmarkExecEngines measures query execution on SNAP-FF: the retired
// dense executor against the hybrid engine for both endpoint plans, plus
// the hybrid-only interior zig-zag start. The queries are length-3 and
// length-4 paths mixing frequent (Zipf-head) and rare labels, so both
// sparse and dense row regimes appear mid-join.
func BenchmarkExecEngines(b *testing.B) {
	g := dataset.Generate(dataset.Table3()[3], 0.1, 1).Freeze() // SNAP-FF
	queries := []paths.Path{{0, 1, 2}, {1, 0, 0}, {2, 1, 0, 3}, {0, 0, 1, 2}}
	for _, dir := range []oracle.Direction{oracle.Forward, oracle.Backward} {
		b.Run("legacy-dense/"+dir.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					oracle.ExecuteDense(g, q, dir)
				}
			}
		})
	}
	for _, shape := range []struct {
		name  string
		start func(q paths.Path) int
	}{
		{"forward", func(paths.Path) int { return 0 }},
		{"backward", func(q paths.Path) int { return len(q) - 1 }},
		{"zigzag", func(paths.Path) int { return 1 }},
	} {
		b.Run("hybrid/"+shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					plan := exec.PathPlan(q, &exec.PlanTree{Lo: 0, Hi: len(q), Start: shape.start(q)})
					if _, _, err := exec.Run(g, plan, exec.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// serveMixedGraph is the graph of bench/'s serve_mixed workload (SNAP-FF at
// scale 0.25), generated once for the executor-layer benchmarks below: the
// layer numbers the frozen bench/ reports only inside exec.run_us.
var serveMixedGraph = sync.OnceValue(func() *graph.CSR {
	return dataset.Generate(dataset.Table3()[3], 0.25, 1).Freeze()
})

// benchPlan times exec.Run of one hand-built plan on one worker, pooled.
func benchPlan(b *testing.B, g *graph.CSR, pool *exec.RelPool, plan *exec.DagPlan) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Run(g, plan, exec.Options{Workers: 1, Pool: pool}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkElementBase times the base relation of a multi-label element —
// the union of the label relations under an alternation (pair) or a
// wildcard — as exec.Run of a single-element plan: counted when it is all
// of the plan, and built (kept/) when the caller keeps it, which is what a
// plan's first element still pays.
func BenchmarkElementBase(b *testing.B) {
	g := serveMixedGraph()
	all := make([]int, g.NumLabels())
	for l := range all {
		all[l] = l
	}
	pool := exec.NewRelPool(g.NumVertices(), 0)
	for _, c := range []struct {
		name   string
		labels []int
	}{{"pair", all[:2]}, {"wildcard", all}} {
		plan := &exec.DagPlan{Elems: []exec.RPQElem{{Labels: c.labels, MinRep: 1, MaxRep: 1}},
			Tree: &exec.PlanTree{Lo: 0, Hi: 1, Start: -1}}
		b.Run(c.name, func(b *testing.B) { benchPlan(b, g, pool, plan) })
		b.Run("kept/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel, _, err := exec.Run(g, plan, exec.Options{Workers: 1, Pool: pool, KeepResult: true})
				if err != nil {
					b.Fatal(err)
				}
				pool.Put(rel)
			}
		})
	}
}

// BenchmarkFoldThrough times the fold's step through a label set — the
// block after a non-empty prefix that is read from the graph instead of
// built and joined: `1/(2|3)` (alt), `1/2?` (optional, with its skip
// term) and `(2|3)/1` (label, a one-label run after an element).
func BenchmarkFoldThrough(b *testing.B) {
	g := serveMixedGraph()
	pool := exec.NewRelPool(g.NumVertices(), 0)
	label := exec.RPQElem{Labels: []int{0}, MinRep: 1, MaxRep: 1}
	alt := exec.RPQElem{Labels: []int{1, 2}, MinRep: 1, MaxRep: 1}
	zero := exec.Planner{Est: exec.EstimatorFunc(func(paths.Path) float64 { return 0 })}
	for _, c := range []struct {
		name  string
		elems []exec.RPQElem
	}{
		{"alt", []exec.RPQElem{label, alt}},
		{"optional", []exec.RPQElem{label, {Labels: []int{1}, MinRep: 0, MaxRep: 1}}},
		{"label", []exec.RPQElem{alt, label}},
	} {
		plan := zero.Plan(&exec.RPQDag{Elems: c.elems}, g.NumVertices())
		b.Run(c.name, func(b *testing.B) { benchPlan(b, g, pool, plan) })
	}
}

// BenchmarkFoldFused times the fold steps whose ε and skip terms are fused
// into the kernel, on exec_uncached's graph, uncached and counted, as
// bench/ names the labels ("1" is label 0): `(1|2)?/1` (optional-first,
// the eps term of a step through a label), `1/3?` (skip-root, the skip
// term of the counted last step), `(2|4){1,3}` (unrolled, a base and two
// skip steps) and `2/(2|4){1,3}` (unrolled-after, the same element built,
// then joined).
func BenchmarkFoldFused(b *testing.B) {
	g := execUncachedGraph()
	pool := exec.NewRelPool(g.NumVertices(), 0)
	label := func(l int) exec.RPQElem { return exec.RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	rep := exec.RPQElem{Labels: []int{1, 3}, MinRep: 1, MaxRep: 3}
	zero := exec.Planner{Est: exec.EstimatorFunc(func(paths.Path) float64 { return 0 })}
	for _, c := range []struct {
		name  string
		elems []exec.RPQElem
	}{
		{"optional-first", []exec.RPQElem{{Labels: []int{0, 1}, MinRep: 0, MaxRep: 1}, label(0)}},
		{"skip-root", []exec.RPQElem{label(0), {Labels: []int{2}, MinRep: 0, MaxRep: 1}}},
		{"unrolled", []exec.RPQElem{rep}},
		{"unrolled-after", []exec.RPQElem{label(1), rep}},
	} {
		plan := zero.Plan(&exec.RPQDag{Elems: c.elems}, g.NumVertices())
		b.Run(c.name, func(b *testing.B) { benchPlan(b, g, pool, plan) })
	}
}

// BenchmarkLeafFirstStep times a length-2 concrete miss, whose only step is
// the one that reads its start label from the graph: rightward, the start
// label's rows composed with the next label (right), or leftward, the
// previous label's rows composed with the start label (left).
func BenchmarkLeafFirstStep(b *testing.B) {
	g := serveMixedGraph()
	pool := exec.NewRelPool(g.NumVertices(), 0)
	p := paths.Path{0, 1}
	for start, name := range []string{"right", "left"} {
		plan := exec.PathPlan(p, &exec.PlanTree{Lo: 0, Hi: len(p), Start: start})
		b.Run(name, func(b *testing.B) { benchPlan(b, g, pool, plan) })
	}
}

// leafPool draws a workload's concrete pool as bench/ draws it (pool.go,
// concretePool, first from the workload's pool seed): n distinct label
// paths, lengths uniform in [2, k], labels uniform.
func leafPool(seed int64, labels, k, n int) []paths.Path {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []paths.Path
	for misses := 0; len(out) < n && misses < 64+16*n; {
		p := make(paths.Path, 2+rng.Intn(k-1))
		for i := range p {
			p[i] = rng.Intn(labels)
		}
		if key := fmt.Sprint(p); seen[key] {
			misses++
		} else {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkLeafStarts times zig-zag leaves where bench/ cannot see them
// (exec_uncached plans bushy, serve_mixed's timed window is all cache
// hits): one op runs every query of a workload's concrete pool — the 65 of
// exec_uncached on its graph, the 210 of serve_mixed on its — uncached,
// pooled and counted, from every start of one kind: forward (start 0) or
// leftward (every other start, whose leaf grows leftward after any
// rightward steps), at 1 and 2 workers.
func BenchmarkLeafStarts(b *testing.B) {
	for _, w := range []struct {
		name string
		g    *graph.CSR
		pool []paths.Path
	}{
		{"exec_uncached", execUncachedGraph(), leafPool(102, execUncachedGraph().NumLabels(), 4, 65)},
		{"serve_mixed", serveMixedGraph(), leafPool(104, serveMixedGraph().NumLabels(), 3, 210)},
	} {
		pool := exec.NewRelPool(w.g.NumVertices(), 0)
		for _, dir := range []string{"forward", "leftward"} {
			var plans []*exec.DagPlan
			for _, p := range w.pool {
				for s := range p {
					if (s == 0) == (dir == "forward") {
						plans = append(plans, exec.PathPlan(p, &exec.PlanTree{Lo: 0, Hi: len(p), Start: s}))
					}
				}
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", w.name, dir, workers), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for _, plan := range plans {
							if _, _, err := exec.Run(w.g, plan, exec.Options{Workers: workers, Pool: pool}); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkCachePublish times relcache.Put where it is dearest: a shard
// that is full, so that every Put packs its relation and evicts the least
// recently used entry to make room — at 100, 1 000 and 10 000 resident
// entries in the one shard. The victim comes off the shard's queue, so
// the three should read alike; a scan of the shard reads ≈ 10× from the
// first to the last. The relation is `3/7` on serve_mixed's graph: 437
// pairs, 6.9 KB as an entry, near the workload's mean.
func BenchmarkCachePublish(b *testing.B) {
	g := serveMixedGraph()
	rel := paths.EvaluateWithDensity(g, paths.Path{2, 6}, 0)
	// Labels from 1<<14 up encode to three bytes each, so every entry
	// costs the same.
	key := func(i int) paths.Path { return paths.Path{1<<14 + i} }
	for _, entries := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint(entries), func(b *testing.B) {
			probe := relcache.New(relcache.Options{Shards: 1})
			probe.Put(key(0), false, rel)
			cost := probe.Stats().Bytes
			cache := relcache.New(relcache.Options{MaxBytes: int64(entries)*cost + cost/2, Shards: 1})
			for i := 0; i < entries; i++ {
				cache.Put(key(i), false, rel)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache.Put(key((entries+i)%(2*entries)), false, rel)
			}
			b.StopTimer()
			if st := cache.Stats(); st.Entries != entries || st.Evictions < uint64(b.N) {
				b.Fatalf("%d entries after %d evictions in %d Puts: the shard was not full", st.Entries, st.Evictions, b.N)
			}
		})
	}
}

// BenchmarkCacheAdopt times a cache hit as the executor pays for it:
// GetKey, then the packed entry copied out into a pooled buffer. The entry
// is `3/7` on serve_mixed's graph, BenchmarkCachePublish's.
func BenchmarkCacheAdopt(b *testing.B) {
	g := serveMixedGraph()
	key := relcache.AppendPath(nil, paths.Path{2, 6})
	cache := relcache.New(relcache.Options{})
	cache.PutKey(key, paths.EvaluateWithDensity(g, paths.Path{2, 6}, 0))
	pool := exec.NewRelPool(g.NumVertices(), 0)
	for i := 0; i < b.N; i++ {
		rel, ok := cache.GetKey(key)
		if !ok {
			b.Fatal("entry not resident")
		}
		dst := pool.Get()
		rel.CopyInto(dst)
		pool.Put(dst)
	}
}

// BenchmarkWholeHit times what serve_hot's executor does per request: a
// whole-query hit through exec.Run, pooled, of the length-3 path `2/1/2`
// (1 194 pairs) on serve_hot's graph, published cold by a plan that grew
// rightward from its first label (rightward) or leftward from its last
// (leftward). Every relation is forward, so the two read alike: the
// repeat copies the entry out.
func BenchmarkWholeHit(b *testing.B) {
	g := serveHotGraph()
	p := paths.Path{1, 0, 1}
	for _, c := range []struct {
		name  string
		start int
	}{{"rightward", 0}, {"leftward", len(p) - 1}} {
		b.Run(c.name, func(b *testing.B) {
			plan := exec.PathPlan(p, &exec.PlanTree{Lo: 0, Hi: len(p), Start: c.start})
			opt := exec.Options{Workers: 1, Pool: exec.NewRelPool(g.NumVertices(), 0), Cache: relcache.New(relcache.Options{})}
			if _, _, err := exec.Run(g, plan, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, st, err := exec.Run(g, plan, opt); err != nil || st.CacheHits != 1 {
					b.Fatalf("%d cache hits (err %v), want a whole-query hit", st.CacheHits, err)
				}
			}
		})
	}
}

// BenchmarkFoldCached times an RPQ fold against the relation cache in the
// three states a served query meets it, over three of serve_mixed's
// patterns — `(3|4)/*?/2` (altwild), `(2|4)/7{0,2}` (altrep) and `2/1?/5`
// (optional): cold is a first execution over an empty cache, which builds,
// packs and publishes every prefix and element it could otherwise count or
// drop — the price of the other two; prefix resumes from the last prefix
// but one, R_{last−1}, the only entry resident, and runs the last block's
// step; whole is the repeat, one probe and one copy out.
func BenchmarkFoldCached(b *testing.B) {
	g := serveMixedGraph()
	pool := exec.NewRelPool(g.NumVertices(), 0)
	all := make([]int, g.NumLabels())
	for l := range all {
		all[l] = l
	}
	label := func(l int) exec.RPQElem { return exec.RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	zero := exec.Planner{Est: exec.EstimatorFunc(func(paths.Path) float64 { return 0 })}
	plan := func(elems []exec.RPQElem) *exec.DagPlan {
		return zero.Plan(&exec.RPQDag{Elems: elems}, g.NumVertices())
	}
	run := func(b *testing.B, dp *exec.DagPlan, cache *relcache.Cache, hits int) {
		_, st, err := exec.Run(g, dp, exec.Options{Workers: 1, Pool: pool, Cache: cache})
		if err != nil || st.CacheHits != hits {
			b.Fatalf("%d cache hits (err %v), want %d", st.CacheHits, err, hits)
		}
	}
	for _, c := range []struct {
		name  string
		elems []exec.RPQElem
	}{
		{"altwild", []exec.RPQElem{{Labels: []int{2, 3}, MinRep: 1, MaxRep: 1}, {Labels: all, MinRep: 0, MaxRep: 1}, label(1)}},
		{"altrep", []exec.RPQElem{{Labels: []int{1, 3}, MinRep: 1, MaxRep: 1}, {Labels: []int{6}, MinRep: 0, MaxRep: 2}}},
		{"optional", []exec.RPQElem{label(1), {Labels: []int{0}, MinRep: 0, MaxRep: 1}, label(4)}},
	} {
		dp := plan(c.elems)
		b.Run("cold/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(b, dp, relcache.New(relcache.Options{}), 0)
			}
		})
		b.Run("prefix/"+c.name, func(b *testing.B) {
			// The plans' blocks are their elements here, so the last prefix
			// but one is all elements but the last.
			head := c.elems[:len(c.elems)-1]
			rel, _, err := exec.Run(g, plan(head), exec.Options{Workers: 1, KeepResult: true})
			if err != nil {
				b.Fatal(err)
			}
			var key []byte
			for _, e := range head {
				key = relcache.AppendElem(key, e.Labels, e.MinRep, e.MaxRep)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cache := relcache.New(relcache.Options{})
				cache.PutKey(key, rel)
				b.StartTimer()
				run(b, dp, cache, 1)
			}
		})
		b.Run("whole/"+c.name, func(b *testing.B) {
			cache := relcache.New(relcache.Options{})
			run(b, dp, cache, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(b, dp, cache, 1)
			}
		})
	}
}

// censusTotal is Σ f(ℓ) over the census.
func censusTotal(c *paths.Census) int64 {
	var t int64
	for i := int64(0); i < c.Size(); i++ {
		t += c.AtCanonical(i)
	}
	return t
}

// totalSSE is a histogram's total within-bucket sum of squared errors.
func totalSSE(h *histogram.Histogram) float64 {
	var t float64
	for i := 0; i < h.Buckets(); i++ {
		t += h.Bucket(i).SSE
	}
	return t
}
