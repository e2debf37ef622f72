// Package pathsel is the public API and top layer of the reproduction
// (graph → bitset → paths → exec → pathsel): histogram-based selectivity
// estimation for label-path queries on directed edge-labeled graphs, with
// the histogram domain arranged by a configurable ordering method (the
// contribution of Yakovets et al., "Histogram Domain Ordering for Path
// Selectivity Estimation", EDBT 2018). Beyond estimation it exposes the
// end-to-end loop the paper motivates: Compile chooses among a query's
// zig-zag join plans from histogram estimates (Expr.Plan shows the
// choice), and Expr.ExecuteCtx carries the chosen plan out on the hybrid
// execution engine.
//
// Typical use:
//
//	g := pathsel.NewGraph(numVertices, []string{"knows", "likes"})
//	g.AddEdge(0, "knows", 1)
//	...
//	est, err := pathsel.Build(g, pathsel.Config{
//	    MaxPathLength: 3,
//	    Ordering:      pathsel.OrderingSumBased,
//	    Buckets:       256,
//	})
//	sel, err := est.Estimate("knows/likes")
//
// # Performance
//
// Build's dominant cost is the exact selectivity census: a DFS over the
// label trie that extends each prefix's vertex-pair relation by one label
// via relational composition. The census runs on a hybrid sparse/dense
// engine: each relation row (the target set of one source vertex) starts
// as a sorted sparse id list and promotes to a dense bit array once its
// population exceeds DensityThreshold × |V| (default 1/32, the memory
// crossover point between the two forms); compose kernels are specialized
// per representation (sparse rows scatter through the graph's CSR
// adjacency, dense rows union precomputed successor bit sets
// word-parallel). Relations are pooled per worker so the steady-state DFS
// allocates nothing, and subtrees are distributed by a work-stealing
// scheduler that splits at any trie depth, so skewed label distributions
// scale past |L| workers.
//
// Knobs (Config): Workers is the goroutine count of every parallel stage
// (≤ 0 means GOMAXPROCS) — the census, where workers are not capped at
// the label count, and Expr.ExecuteCtx's join steps, which shard source
// rows across the same work-stealing substrate (internal/sched).
// DensityThreshold is the sparse→dense promotion point as a fraction of
// |V| in (0, 1] (≤ 0 selects the 1/32 default; ≥ 1 keeps every row
// sparse); it governs both the census and Expr.ExecuteCtx's join
// relations. The census subtree split granularity
// (paths.CensusOptions.SplitPairs, default 128 pairs) is fixed at its
// default here. Every setting produces bit-identical results — these are
// performance knobs only.
package pathsel

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ordering"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// Ordering method names.
const (
	OrderingNumAlph  = ordering.MethodNumAlph
	OrderingNumCard  = ordering.MethodNumCard
	OrderingLexAlph  = ordering.MethodLexAlph
	OrderingLexCard  = ordering.MethodLexCard
	OrderingSumBased = ordering.MethodSumBased
)

// Histogram builder names.
const (
	HistogramVOptimal  = core.BuilderVOptimal
	HistogramEquiWidth = core.BuilderEquiWidth
	HistogramEquiDepth = core.BuilderEquiDepth
	HistogramMaxDiff   = core.BuilderMaxDiff
)

// Orderings returns the five ordering method names in the paper's order.
func Orderings() []string { return ordering.PaperMethods() }

// Graph is a directed edge-labeled graph under construction. Vertices are
// dense integers [0, NumVertices); labels are referenced by name.
type Graph struct {
	g      *graph.Graph
	frozen *graph.CSR
}

// NewGraph returns an empty graph with the given vertex count and label
// vocabulary. It panics on an empty vocabulary or a repeated name;
// NewGraphChecked is the error-returning form.
func NewGraph(numVertices int, labels []string) *Graph {
	gr, err := NewGraphChecked(numVertices, labels)
	if err != nil {
		panic(err.Error())
	}
	return gr
}

// NewGraphChecked is NewGraph returning a typed error instead of
// panicking: an empty label vocabulary yields ErrNoLabels, a name given
// twice ErrDuplicateLabel.
func NewGraphChecked(numVertices int, labels []string) (*Graph, error) {
	if len(labels) == 0 {
		return nil, ErrNoLabels
	}
	g := graph.New(numVertices, len(labels))
	seen := make(map[string]bool, len(labels))
	for i, name := range labels {
		if seen[name] {
			return nil, fmt.Errorf("%w %q", ErrDuplicateLabel, name)
		}
		seen[name] = true
		g.SetLabelName(i, name)
	}
	return &Graph{g: g}, nil
}

// LoadEdgeList reads a whitespace-separated `src dst label` edge list
// (lines starting with % or # are comments).
func LoadEdgeList(r io.Reader) (*Graph, error) {
	g, err := dataset.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// AddEdge inserts a directed labeled edge. It returns an error for unknown
// labels or out-of-range vertices (and reports duplicate edges as a no-op
// false).
func (gr *Graph) AddEdge(src int, label string, dst int) (bool, error) {
	l := gr.g.LabelByName(label)
	if l < 0 {
		return false, fmt.Errorf("%w %q", ErrUnknownLabel, label)
	}
	if src < 0 || src >= gr.g.NumVertices() || dst < 0 || dst >= gr.g.NumVertices() {
		return false, fmt.Errorf("%w: edge (%d,%d) outside [0,%d)",
			ErrVertexRange, src, dst, gr.g.NumVertices())
	}
	gr.frozen = nil
	return gr.g.AddEdge(src, l, dst), nil
}

// NumVertices returns |V|.
func (gr *Graph) NumVertices() int { return gr.g.NumVertices() }

// NumEdges returns |E|.
func (gr *Graph) NumEdges() int { return gr.g.NumEdges() }

// Labels returns the label vocabulary.
func (gr *Graph) Labels() []string {
	out := make([]string, gr.g.NumLabels())
	for i := range out {
		out[i] = gr.g.LabelName(i)
	}
	return out
}

// WriteEdgeList writes the graph in the loader's format.
func (gr *Graph) WriteEdgeList(w io.Writer) error {
	return dataset.WriteEdgeList(w, gr.g)
}

// csr freezes (and caches) the CSR form.
func (gr *Graph) csr() *graph.CSR {
	if gr.frozen == nil {
		gr.frozen = gr.g.Freeze()
	}
	return gr.frozen
}

// parsePath resolves a "a/b/c" label-name path against the graph.
func (gr *Graph) parsePath(q string) (paths.Path, error) {
	if q == "" {
		return nil, ErrEmptyPath
	}
	var p paths.Path
	start := 0
	for i := 0; i <= len(q); i++ {
		if i == len(q) || q[i] == '/' {
			name := q[start:i]
			l := gr.g.LabelByName(name)
			if l < 0 {
				return nil, fmt.Errorf("%w %q in path %q", ErrUnknownLabel, name, q)
			}
			p = append(p, l)
			start = i + 1
		}
	}
	return p, nil
}

// TrueSelectivity evaluates the path query exactly: the number of distinct
// vertex pairs connected by the label path (slash-separated label names).
func (gr *Graph) TrueSelectivity(q string) (int64, error) {
	p, err := gr.parsePath(q)
	if err != nil {
		return 0, err
	}
	return paths.Selectivity(gr.csr(), p), nil
}

// Config parameterizes Build.
type Config struct {
	// MaxPathLength is k, the maximum label-path length covered (≥ 1).
	MaxPathLength int
	// Ordering is the domain ordering method (default OrderingSumBased).
	Ordering string
	// Histogram is the bucket builder (default HistogramVOptimal).
	Histogram string
	// Buckets is the bucket budget β (≥ 1).
	Buckets int

	// Workers is the worker-goroutine count of every parallel stage (≤ 0
	// means GOMAXPROCS): the census — a work-stealing scheduler that
	// splits label-trie subtrees at any depth, so worker counts above the
	// label count still help on skewed label distributions — and
	// Expr.ExecuteCtx's join steps, which shard each intermediate
	// relation's source rows across the same scheduling substrate. Results
	// are bit-identical at every setting. GOMAXPROCS is re-read at use time
	// (sched.WorkerCount), and each layer clamps the count to the most
	// tasks its workload can produce — asking for more workers than a
	// graph has shardable rows configures nothing but idle goroutines,
	// so the executor refuses to start them.
	Workers int
	// DensityThreshold tunes the census's hybrid relation rows: a row
	// (the target set of one source vertex) is kept as a sorted sparse id
	// list until its population exceeds DensityThreshold × |V|, then
	// promotes to a dense bit array. ≤ 0 selects the default (1/32, the
	// memory crossover between the two forms); ≥ 1 keeps every row
	// sparse. Purely a performance knob — results are identical at any
	// setting.
	DensityThreshold float64
	// BushyPlans widens Compile's plan search from the k linear zig-zag
	// plans to the full bushy plan-tree space: a dynamic program
	// enumerates every way to split the query into independently built
	// segments joined pairwise (relation×relation), costing interior
	// segments from the histogram, and falls back to the best zig-zag
	// plan whenever linear growth is estimated cheaper. Every plan
	// produces identical results — this knob only changes which plan is
	// chosen, and so how much intermediate work execution does.
	BushyPlans bool
	// CacheBytes, when > 0, gives the estimator a persistent
	// segment-relation cache of that byte budget (internal/relcache):
	// every Expr.ExecuteCtx and ExecuteExprBatchCtx call then reuses
	// segment relations materialized by earlier queries instead of
	// recomputing them, trading memory for workload throughput. What is
	// cached is every label segment of length ≥ 2 a concrete path's plan
	// joins, and for a regular path query every prefix of its plan's
	// blocks, every element that is more than one label read once, and
	// its result — so a query that repeats, of either kind, is answered
	// by one lookup. They share the one budget, least recently used out
	// first: one large wildcard result can evict many small segments,
	// as a long path's result always could. An entry
	// is stored packed and costs its content — 4 bytes per pair of a
	// sparse row, ⌈|V|/64⌉ words per dense row, 12 bytes per source
	// vertex and ≈ 250 of bookkeeping — nothing per vertex of the graph,
	// so a megabyte holds hundreds of selective segments whatever |V| is.
	// The cache is bound to this estimator's graph. 0 leaves every
	// execution, single or batched, uncached. Caching never changes
	// results — adopted relations are bit-identical to recomputed ones —
	// though with BushyPlans set it can change which plan is chosen
	// (cached segments cost nothing to build, so warm workloads favor
	// bushy joins of reusable segments).
	CacheBytes int64
	// CacheShards is the cache's shard count (≤ 0 selects an
	// 8-shard default). Shards bound lock contention when
	// ExecuteExprBatchCtx runs queries concurrently; each shard owns an
	// equal slice of CacheBytes.
	CacheShards int

	// QueryTimeout, when > 0, bounds each executed query's wall-clock
	// time: every single execution and every query of a batch runs
	// under a per-query deadline of this duration (intersected with
	// any caller-supplied context deadline). A query killed by the
	// timeout returns ErrDeadlineExceeded — or degrades to the histogram
	// estimate under DegradeToEstimate. Estimation-only methods
	// (Estimate, EstimatePrefix) never need it: they are a constant-time
	// histogram lookup.
	QueryTimeout time.Duration
	// MaxResultBytes, when > 0, bounds the memory of every relation a
	// query materializes, priced as an exact-size working copy: content
	// bytes plus 56 per vertex of the graph (the budget's own measure;
	// the relation cache's is the packed entry, see CacheBytes).
	// It acts twice: at admission, queries whose histogram-projected
	// peak relation would exceed the budget are rejected with
	// ErrAdmissionDenied before touching the graph; and at runtime,
	// every materialized relation is priced after its join step and the
	// query is killed with ErrBudgetExceeded the moment one outgrows the
	// budget.
	MaxResultBytes int64
	// MaxPlanCost, when > 0, is the admission gate on estimated plan
	// cost: a query whose cheapest plan's estimated total intermediate
	// volume (QueryPlan.EstimatedCost, in vertex pairs) exceeds it is
	// rejected with ErrAdmissionDenied before execution. Because the
	// gate prices the plan with the same histogram the planner uses, its
	// cost is one plan search — no graph access.
	MaxPlanCost float64
	// DegradeToEstimate turns rejected and killed queries into degraded
	// answers instead of errors: when a query is refused by the
	// admission gate or aborted mid-flight (deadline, budget, context
	// cancellation), Expr.ExecuteCtx returns the rounded histogram
	// estimate in ExecStats.Result with ExecStats.Degraded set and the
	// typed cause in ExecStats.DegradedBy, and a nil error. Execution
	// *failures* (a contained panic, ErrExecutionFailed) still error:
	// degradation is for resource policy, not for masking bugs.
	DegradeToEstimate bool
}

func (c *Config) fill() error {
	if c.Ordering == "" {
		c.Ordering = OrderingSumBased
	}
	if c.Histogram == "" {
		c.Histogram = HistogramVOptimal
	}
	if c.MaxPathLength < 1 {
		return fmt.Errorf("%w: MaxPathLength must be ≥ 1, got %d", ErrBadConfig, c.MaxPathLength)
	}
	if c.Buckets < 1 {
		return fmt.Errorf("%w: Buckets must be ≥ 1, got %d", ErrBadConfig, c.Buckets)
	}
	if c.QueryTimeout < 0 {
		return fmt.Errorf("%w: QueryTimeout must be ≥ 0, got %v", ErrBadConfig, c.QueryTimeout)
	}
	return nil
}

// Estimator answers approximate path-selectivity queries from a compact
// histogram, without access to the original distribution: it is the
// synopsis LoadEstimator restores (Estimate, EstimatePrefix, Labels,
// Ordering, Buckets, MaxPathLength), plus the graph that Compile executes
// on and the build-time census behind the True* methods and Evaluate.
type Estimator struct {
	synopsis
	gr     *Graph
	census *paths.Census
	cfg    Config
	cache  *relcache.Cache // persistent segment-relation cache; nil unless Config.CacheBytes > 0
	pool   *exec.RelPool   // shared relation free list; abort paths drain back into it
}

// Build computes the exact selectivity distribution of all label paths up
// to cfg.MaxPathLength, arranges it with the configured ordering, and
// compresses it into a β-bucket histogram.
func Build(gr *Graph, cfg Config) (*Estimator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ph, census, err := core.BuildForGraph(gr.csr(), cfg.Ordering, cfg.Histogram,
		cfg.MaxPathLength, cfg.Buckets,
		paths.CensusOptions{Workers: cfg.Workers, DensityThreshold: cfg.DensityThreshold})
	if err != nil {
		return nil, err
	}
	syn := synopsis{ids: make(map[string]int), names: gr.Labels(), ph: ph}
	for i, name := range syn.names {
		syn.ids[name] = i
	}
	e := &Estimator{synopsis: syn, gr: gr, census: census, cfg: cfg}
	// One relation pool for the estimator's lifetime: every
	// Expr.ExecuteCtx / ExecuteExprBatchCtx draws its materialized
	// relations here and releases them on completion and on every abort
	// path, so cancelled queries leave no orphaned buffers behind (and
	// warm workloads stop allocating).
	e.pool = exec.NewRelPool(gr.NumVertices(), cfg.DensityThreshold)
	if cfg.CacheBytes > 0 {
		e.cache = relcache.New(relcache.Options{MaxBytes: cfg.CacheBytes, Shards: cfg.CacheShards})
	}
	return e, nil
}

// TruePrefixSelectivity returns the exact aggregate selectivity of the
// path and all of its extensions, from the build-time ground truth.
func (e *Estimator) TruePrefixSelectivity(q string) (int64, error) {
	p, err := e.parsePath(q)
	if err != nil {
		return 0, err
	}
	return e.census.PrefixSelectivity(p), nil
}

// TrueSelectivity returns the exact f(ℓ) recorded at build time.
func (e *Estimator) TrueSelectivity(q string) (int64, error) {
	p, err := e.parsePath(q)
	if err != nil {
		return 0, err
	}
	return e.census.Selectivity(p), nil
}

// Accuracy reports estimation quality over the entire path domain.
type Accuracy struct {
	// MeanErrorRate is the mean |err(ℓ)| of the paper's Eq. 6 metric.
	MeanErrorRate float64
	// MeanQError is the mean q-error.
	MeanQError float64
	// MaxAbsError is the worst |err(ℓ)|.
	MaxAbsError float64
	// Paths is |Lk|, the number of queries evaluated.
	Paths int64
}

// Evaluate measures the estimator against its build-time ground truth.
func (e *Estimator) Evaluate() Accuracy {
	ev := core.Evaluate(e.ph, e.census)
	return Accuracy{
		MeanErrorRate: ev.MeanErrorRate,
		MeanQError:    ev.MeanQError,
		MaxAbsError:   ev.MaxAbsError,
		Paths:         e.census.Size(),
	}
}

// DomainSize returns |Lk|.
func (e *Estimator) DomainSize() int64 { return e.census.Size() }
