package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/sched"
)

// PerfBenchK is the path-length bound every perf-bench census runs at.
const PerfBenchK = 3

// BenchSchemaVersion is the schema_version stamped into every PerfReport.
// Version history (see docs/benchmarks.md):
//
//	1 — go_version, gomaxprocs, scale, results (implicit; the field did
//	    not exist).
//	2 — adds schema_version, num_cpu (host core count), and workers (the
//	    configured worker-count override the emitters ran with), making
//	    the 1-core caveat machine-readable.
const BenchSchemaVersion = 2

// SkewedScalingGraph is the worker-scaling workload shared by RunPerfBench
// and the top-level BenchmarkCensusSkewedScaling, so `go test -bench` and
// the committed BENCH_*.json measure the same graph: an Erdős–Rényi
// topology whose labels follow Zipf s=1.8 (one label carries most edges —
// the distribution that load-imbalances per-first-label parallelism).
func SkewedScalingGraph() *graph.CSR {
	return dataset.ErdosRenyi(600, 7000, dataset.NewZipfLabels(6, 1.8), 3).Freeze()
}

// PerfResult is one timed perf-bench measurement: a named operation on a
// named dataset at a worker count, averaged over Iters runs.
type PerfResult struct {
	Name    string  `json:"name"`    // e.g. "census/hybrid" or "compose/sparse-csr"
	Dataset string  `json:"dataset"` // Table 3 dataset or synthetic generator name
	K       int     `json:"k,omitempty"`
	Workers int     `json:"workers,omitempty"`
	Iters   int     `json:"iters"`
	NsPerOp int64   `json:"ns_per_op"`
	Speedup float64 `json:"speedup_vs_baseline,omitempty"` // filled for engine pairs

	// Latency percentiles and achieved throughput, filled only by the
	// serving bench (serve/* rows), whose operation is a whole load pass
	// rather than a single call. Additive and omitempty, so the schema
	// version is unchanged and non-serving rows are byte-identical.
	P50Ns int64   `json:"p50_ns,omitempty"`
	P95Ns int64   `json:"p95_ns,omitempty"`
	P99Ns int64   `json:"p99_ns,omitempty"`
	QPS   float64 `json:"qps,omitempty"`

	// Cache traffic of one workload pass and estimate quality versus the
	// enumerated oracle, filled only by the RPQ bench (rpq/* rows).
	// Additive and omitempty like the serving fields above.
	CacheHits   int64   `json:"cache_hits,omitempty"`
	CacheMisses int64   `json:"cache_misses,omitempty"`
	QError      float64 `json:"q_error,omitempty"`

	// Overload-bench columns (overload/* rows), additive and omitempty:
	// how one load pass under an overdriven arrival process resolved.
	// GoodputQPS counts only answered (OK + degraded) arrivals per second
	// — the figure the controlled rows' speedup_vs_baseline is the ratio
	// of; Shed, Retries, and Degraded are the controller's and the
	// retrying client's visible work.
	GoodputQPS float64 `json:"goodput_qps,omitempty"`
	Shed       int64   `json:"shed,omitempty"`
	Retries    int64   `json:"retries,omitempty"`
	Degraded   int64   `json:"degraded,omitempty"`
}

// PerfReport is the committed BENCH_*.json artifact: a snapshot of the
// census, executor, and compose-kernel performance so the trajectory is
// tracked across PRs. GOMAXPROCS, NumCPU, and Workers make the
// measurement host's parallelism machine-readable: a report with
// gomaxprocs 1 cannot show wall-clock worker scaling no matter what the
// workers field says (docs/benchmarks.md, "The 1-core caveat").
type PerfReport struct {
	SchemaVersion int          `json:"schema_version"`
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	NumCPU        int          `json:"num_cpu"`
	Workers       int          `json:"workers"`
	Scale         float64      `json:"scale"`
	Results       []PerfResult `json:"results"`
}

// newPerfReport stamps the environment fields of a report. scale must
// already be defaulted; workers must already be resolved through
// sched.WorkerCount.
func newPerfReport(scale float64, workers int) *PerfReport {
	return &PerfReport{
		SchemaVersion: BenchSchemaVersion,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Workers:       workers,
		Scale:         scale,
	}
}

// benchDefaults normalizes the shared emitter knobs: scale defaults to
// 0.05, iters to 3, workers (≤ 0) to GOMAXPROCS.
func benchDefaults(scale float64, iters, workers int) (float64, int, int) {
	if scale <= 0 {
		scale = 0.05
	}
	if iters <= 0 {
		iters = 3
	}
	return scale, iters, sched.WorkerCount(workers)
}

// WriteJSON encodes the report, indented, to w.
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ExecBenchQueries are the SNAP-FF label paths the exec bench executes:
// length-3 and length-4 queries mixing frequent (Zipf-head) and rare
// labels, so both sparse and dense row regimes appear mid-join.
var ExecBenchQueries = []paths.Path{
	{0, 1, 2},
	{1, 0, 0},
	{2, 1, 0, 3},
	{0, 0, 1, 2},
}

// benchSnapFF builds the shared SNAP-FF graph of the exec and
// compose-kernel sections at twice the census scale, clamped to the
// generator's (0, 1] domain.
func benchSnapFF(scale float64) *graph.CSR {
	s := 2 * scale
	if s > 1 {
		s = 1
	}
	return dataset.Generate(dataset.Table3()[3], s, 1).Freeze()
}

// execBenchResults measures query execution on SNAP-FF: the legacy dense
// executor against the hybrid engine for the forward and backward
// endpoint plans, plus the hybrid-only interior zig-zag start and the
// union (disjunction) evaluator. Each measurement runs every
// ExecBenchQueries path once per iteration. Hybrid rows execute at the
// given (already resolved) worker count and record it.
func execBenchResults(g *graph.CSR, iters, workers int) []PerfResult {
	execIters := iters * 5
	opt := exec.Options{Workers: workers}
	var out []PerfResult

	run := func(name string, ns, baseline int64, w int) {
		// K is omitted: the workload mixes path lengths 3 and 4.
		r := PerfResult{Name: name, Dataset: "SNAP-FF", Workers: w, Iters: execIters, NsPerOp: ns}
		if baseline > 0 {
			r.Speedup = float64(baseline) / float64(ns)
		}
		out = append(out, r)
	}

	legacyFwd := timeOp(execIters, func() {
		for _, q := range ExecBenchQueries {
			exec.ExecuteDense(g, q, exec.Forward)
		}
	})
	run("exec/legacy-dense-forward", legacyFwd, 0, 0)
	hybridFwd := timeOp(execIters, func() {
		for _, q := range ExecBenchQueries {
			must(exec.Run(g, startPlan(q, 0), opt))
		}
	})
	run("exec/hybrid-forward", hybridFwd, legacyFwd, workers)

	legacyBwd := timeOp(execIters, func() {
		for _, q := range ExecBenchQueries {
			exec.ExecuteDense(g, q, exec.Backward)
		}
	})
	run("exec/legacy-dense-backward", legacyBwd, 0, 0)
	hybridBwd := timeOp(execIters, func() {
		for _, q := range ExecBenchQueries {
			must(exec.Run(g, startPlan(q, len(q)-1), opt))
		}
	})
	run("exec/hybrid-backward", hybridBwd, legacyBwd, workers)

	// Interior zig-zag start: no legacy counterpart; baseline against the
	// hybrid forward plan so the reversal overhead is visible.
	zigzag := timeOp(execIters, func() {
		for _, q := range ExecBenchQueries {
			must(exec.Run(g, startPlan(q, 1), opt))
		}
	})
	run("exec/hybrid-zigzag@1", zigzag, hybridFwd, workers)

	// Union (pattern disjunction) over all bench queries.
	union := timeOp(execIters, func() {
		paths.UnionSelectivity(g, ExecBenchQueries)
	})
	run("exec/union-selectivity", union, 0, 0)
	return out
}

// RunExecBench measures only the query-execution section — the
// BENCH_exec.json artifact. scale/iters default to 0.05/3 when ≤ 0;
// workers ≤ 0 selects GOMAXPROCS.
func RunExecBench(scale float64, iters, workers int) *PerfReport {
	scale, iters, workers = benchDefaults(scale, iters, workers)
	rep := newPerfReport(scale, workers)
	rep.Results = execBenchResults(benchSnapFF(scale), iters, workers)
	return rep
}

// workerLadder measures one operation across the deduplicated worker
// counts (rungs < 1 are skipped), reporting each rung's speedup against
// the first — sequential — rung. template supplies the constant fields
// (Name, Dataset, K, Iters); Workers, NsPerOp, and Speedup are filled per
// rung. Both scaling sections (census/hybrid-skewed, parexec/*) emit
// through this one helper so their rung sets cannot drift apart.
func workerLadder(counts []int, template PerfResult, measure func(w int) int64) []PerfResult {
	var out []PerfResult
	var base int64
	seen := map[int]bool{}
	for _, w := range counts {
		if w < 1 || seen[w] {
			continue
		}
		seen[w] = true
		r := template
		r.Workers = w
		r.NsPerOp = measure(w)
		if base == 0 {
			base = r.NsPerOp
		} else {
			r.Speedup = float64(base) / float64(r.NsPerOp)
		}
		out = append(out, r)
	}
	return out
}

// parExecBenchResults measures the parallel executor's worker scaling on
// SNAP-FF: every plan shape at worker counts 1, 2, 4, and the configured
// override, with each shape's 1-worker (sequential) run as its speedup
// baseline. On a GOMAXPROCS=1 host the >1-worker rows time the same
// single-core execution plus scheduling overhead — that is the point of
// recording gomaxprocs/num_cpu in the report header.
func parExecBenchResults(g *graph.CSR, iters, workers int) []PerfResult {
	execIters := iters * 5
	var out []PerfResult
	shapes := []struct {
		name  string
		start func(q paths.Path) int
	}{
		{"parexec/forward", func(paths.Path) int { return 0 }},
		{"parexec/backward", func(q paths.Path) int { return len(q) - 1 }},
		{"parexec/zigzag@1", func(paths.Path) int { return 1 }},
	}
	// Warm the graph's lazy operands (successor and predecessor CSRs)
	// outside the timed region so the 1-worker baseline, which runs
	// first, is not charged for them. One untimed pass per measured plan
	// shape guarantees coverage structurally — every operand a timed run
	// can touch has been built — rather than relying on the current query
	// set's labels happening to appear in both directions.
	for _, shape := range shapes {
		for _, q := range ExecBenchQueries {
			must(exec.Run(g, startPlan(q, shape.start(q)), exec.Options{Workers: 1}))
		}
	}
	counts := []int{1, 2, 4, workers}
	for _, shape := range shapes {
		out = append(out, workerLadder(counts,
			PerfResult{Name: shape.name, Dataset: "SNAP-FF", Iters: execIters},
			func(w int) int64 {
				opt := exec.Options{Workers: w}
				return timeOp(execIters, func() {
					for _, q := range ExecBenchQueries {
						must(exec.Run(g, startPlan(q, shape.start(q)), opt))
					}
				})
			})...)
	}
	return out
}

// RunParExecBench measures only the parallel-executor scaling section —
// the BENCH_parexec.json artifact. scale/iters default to 0.05/3 when
// ≤ 0; workers ≤ 0 selects GOMAXPROCS.
func RunParExecBench(scale float64, iters, workers int) *PerfReport {
	scale, iters, workers = benchDefaults(scale, iters, workers)
	rep := newPerfReport(scale, workers)
	rep.Results = parExecBenchResults(benchSnapFF(scale), iters, workers)
	return rep
}

// BushyBenchQueries are the SNAP-FF label paths the bushy bench executes:
// longer queries (length 4 and 5) where splitting the path into two
// independently built segments is actually available to the planner.
var BushyBenchQueries = []paths.Path{
	{2, 1, 0, 3},
	{0, 0, 1, 2},
	{1, 0, 2, 1, 0},
}

// balancedTree is the canonical bushy plan for a length-k query: split at
// k/2 and build both halves as forward linear segments. k must be ≥ 2.
func balancedTree(k int) *exec.PlanTree {
	m := k / 2
	return &exec.PlanTree{Lo: 0, Hi: k, Start: -1,
		Left:  &exec.PlanTree{Lo: 0, Hi: m, Start: 0},
		Right: &exec.PlanTree{Lo: m, Hi: k, Start: m},
	}
}

// bushyBenchResults measures the bushy executor and the isolated
// relation×relation join kernel on SNAP-FF: the linear forward plan as
// the baseline, the balanced two-segment tree against it, the join kernel
// at each density regime, and the bushy executor's worker-scaling ladder.
// The balanced tree is a fixed plan shape, not the planner's choice, so
// the row measures the bushy machinery, not estimator quality.
func bushyBenchResults(g *graph.CSR, iters, workers int) []PerfResult {
	execIters := iters * 5
	opt := exec.Options{Workers: workers}
	var out []PerfResult

	linear := timeOp(execIters, func() {
		for _, q := range BushyBenchQueries {
			must(exec.Run(g, startPlan(q, 0), opt))
		}
	})
	out = append(out, PerfResult{Name: "bushy/linear-forward", Dataset: "SNAP-FF",
		Workers: workers, Iters: execIters, NsPerOp: linear})
	tree := timeOp(execIters, func() {
		for _, q := range BushyBenchQueries {
			must(exec.Run(g, exec.PathPlan(q, balancedTree(len(q))), opt))
		}
	})
	out = append(out, PerfResult{Name: "bushy/balanced-tree", Dataset: "SNAP-FF",
		Workers: workers, Iters: execIters, NsPerOp: tree,
		Speedup: float64(linear) / float64(tree)})

	// Isolated relation×relation join kernel: join the two halves of the
	// first length-4 query at each density regime. The segments are built
	// once outside the timed region; the destination and scratch are
	// reused, so the rows time exactly one JoinInto.
	q := BushyBenchQueries[0]
	kernIters := iters * 20
	var sparseNs int64
	for _, kern := range []struct {
		name    string
		density float64
	}{
		{"join/sparse", 1.0},
		{"join/dense", 1e-9},
		{"join/adaptive", 0},
	} {
		kopt := exec.Options{DensityThreshold: kern.density, Workers: 1, KeepResult: true}
		left, _ := must(exec.Run(g, startPlan(q[:2], 0), kopt))
		right, _ := must(exec.Run(g, startPlan(q[2:], 0), kopt))
		dst := bitset.NewHybrid(g.NumVertices(), kern.density)
		scr := bitset.NewComposeScratch(g.NumVertices())
		ns := timeOp(kernIters, func() { left.JoinInto(dst, right, scr) })
		r := PerfResult{Name: kern.name, Dataset: "SNAP-FF", Iters: kernIters, NsPerOp: ns}
		if sparseNs == 0 {
			sparseNs = ns
		} else {
			r.Speedup = float64(sparseNs) / float64(ns)
		}
		out = append(out, r)
	}

	// Worker scaling of the full bushy execution (concurrent segment
	// builds + sharded final join). Warm the lazy graph operands outside
	// the timed region so the 1-worker baseline is not charged for them.
	for _, q := range BushyBenchQueries {
		must(exec.Run(g, exec.PathPlan(q, balancedTree(len(q))), exec.Options{Workers: 1}))
	}
	out = append(out, workerLadder([]int{1, 2, 4, workers},
		PerfResult{Name: "bushyexec/balanced-tree", Dataset: "SNAP-FF", Iters: execIters},
		func(w int) int64 {
			wopt := exec.Options{Workers: w}
			return timeOp(execIters, func() {
				for _, q := range BushyBenchQueries {
					must(exec.Run(g, exec.PathPlan(q, balancedTree(len(q))), wopt))
				}
			})
		})...)
	return out
}

// RunBushyBench measures only the bushy-plan section — the
// BENCH_bushy.json artifact. scale/iters default to 0.05/3 when ≤ 0;
// workers ≤ 0 selects GOMAXPROCS.
func RunBushyBench(scale float64, iters, workers int) *PerfReport {
	scale, iters, workers = benchDefaults(scale, iters, workers)
	rep := newPerfReport(scale, workers)
	rep.Results = bushyBenchResults(benchSnapFF(scale), iters, workers)
	return rep
}

// must unwraps an execution that runs with no canceller, no budget and
// no fault injection: its only possible failure is a contained panic — a
// bug in the engine — which is re-raised rather than timed.
func must(rel *bitset.HybridRelation, st exec.Stats, err error) (*bitset.HybridRelation, exec.Stats) {
	if err != nil {
		panic(err)
	}
	return rel, st
}

// timeOp runs fn iters times and returns the mean ns/op.
func timeOp(iters int, fn func()) int64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start).Nanoseconds() / int64(iters)
}

// RunPerfBench measures the census engines (legacy sequential vs hybrid
// work-stealing at several worker counts) on the synthetic Table 3
// datasets plus a skewed-label scaling graph, the query executors, and
// the compose kernels in isolation. scale/iters default to 0.05/3 when
// ≤ 0; workers ≤ 0 selects GOMAXPROCS, and the resolved count joins the
// fixed {1, 2, 4} rungs of every scaling ladder (deduplicated).
func RunPerfBench(scale float64, iters, workers int) *PerfReport {
	scale, iters, workers = benchDefaults(scale, iters, workers)
	rep := newPerfReport(scale, workers)
	const k = PerfBenchK

	// Census engines on the synthetic Table 3 datasets.
	for _, specIdx := range []int{2, 3} { // SNAP-ER, SNAP-FF
		spec := dataset.Table3()[specIdx]
		g := dataset.Generate(spec, scale, 1).Freeze()
		legacy := timeOp(iters, func() { paths.NewCensus(g, k) })
		rep.Results = append(rep.Results, PerfResult{
			Name: "census/legacy", Dataset: spec.Name, K: k,
			Iters: iters, NsPerOp: legacy,
		})
		for _, w := range []int{1, workers} {
			ns := timeOp(iters, func() {
				paths.NewCensusHybrid(g, k, paths.CensusOptions{Workers: w})
			})
			rep.Results = append(rep.Results, PerfResult{
				Name: "census/hybrid", Dataset: spec.Name, K: k, Workers: w,
				Iters: iters, NsPerOp: ns,
				Speedup: float64(legacy) / float64(ns),
			})
			if workers == 1 {
				break // avoid duplicate row on single-worker runs
			}
		}
	}

	// Worker scaling on a skewed label distribution — the load-imbalance
	// case the work-stealing scheduler exists for.
	skew := SkewedScalingGraph()
	rep.Results = append(rep.Results, workerLadder([]int{1, 2, 4, workers},
		PerfResult{Name: "census/hybrid-skewed", Dataset: "erdos-renyi-zipf1.8", K: k, Iters: iters},
		func(w int) int64 {
			return timeOp(iters, func() {
				paths.NewCensusHybrid(skew, k, paths.CensusOptions{Workers: w})
			})
		})...)

	// Query execution on SNAP-FF: the forward-join benchmark the exec
	// port is judged by, plus the other plan shapes and the parallel
	// executor's scaling ladder. See RunExecBench / RunParExecBench.
	// The same frozen graph also serves the compose-kernel section below.
	g := benchSnapFF(scale)
	rep.Results = append(rep.Results, execBenchResults(g, iters, workers)...)
	rep.Results = append(rep.Results, parExecBenchResults(g, iters, workers)...)

	// Compose kernels in isolation on SNAP-FF label 0.
	op := g.LabelOperand(0)
	kernIters := iters * 20
	legacyRel := g.EdgeRelation(0)
	succ := g.SuccessorSets(0)
	legacyNs := timeOp(kernIters, func() { legacyRel.Compose(succ) })
	rep.Results = append(rep.Results, PerfResult{
		Name: "compose/legacy-dense", Dataset: "SNAP-FF", Iters: kernIters, NsPerOp: legacyNs,
	})
	for _, kern := range []struct {
		name    string
		density float64
	}{
		{"compose/sparse-csr", 1.0},
		{"compose/dense-csr", 1e-9},
		{"compose/adaptive", 0},
	} {
		rel := bitset.HybridFromCSR(op, kern.density)
		dst := bitset.NewHybrid(op.N, kern.density)
		scr := bitset.NewComposeScratch(op.N)
		ns := timeOp(kernIters, func() { rel.ComposeInto(dst, op, scr) })
		rep.Results = append(rep.Results, PerfResult{
			Name: kern.name, Dataset: "SNAP-FF", Iters: kernIters, NsPerOp: ns,
			Speedup: float64(legacyNs) / float64(ns),
		})
	}
	return rep
}
