// Package pathsel is the public API and top layer of the reproduction
// (graph → bitset → paths → exec → pathsel): histogram-based selectivity
// estimation for label-path queries on directed edge-labeled graphs, with
// the histogram domain arranged by a configurable ordering method (the
// contribution of Yakovets et al., "Histogram Domain Ordering for Path
// Selectivity Estimation", EDBT 2018). Beyond estimation it exposes the
// end-to-end loop the paper motivates: Compile parses a label path or a
// regular path query and plans it from histogram estimates — the cheapest
// zig-zag join plan, or bushy plan tree under Config.BushyPlans, for each
// run of plain labels, folded with the pattern's alternations,
// repetitions and wildcards (Expr.Plan shows the choice) — and
// Expr.ExecuteCtx carries the chosen plan out on the hybrid execution
// engine (internal/exec). A compiled Expr knows its estimate and its
// plan's estimated cost before anything runs, so a caller that would
// rather answer the estimate than pay for an execution — a server under
// load, or one that bounds a query's cost or time (internal/serve) —
// decides that itself; the library executes and reports, and a query it
// refuses or kills is an error.
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
// Build freezes the Graph into its CSR and drops the builder, so a built
// graph is held once; the Estimator keeps that CSR and is a snapshot of
// it. Edges added to the Graph afterwards thaw it, and reach an estimator
// only through a new Build.
//
// # Performance
//
// Build's dominant cost is the exact selectivity census: a DFS over the
// label trie that extends each prefix's vertex-pair relation by one label
// via relational composition. The census runs on a hybrid sparse/dense
// engine: each relation row (the target set of one source vertex) starts
// as a sorted sparse id list and promotes to a dense bit array once its
// population exceeds DensityThreshold × |V| (default 1/32, the memory
// crossover point between the two forms); whatever a row's form, a step
// scatters the graph's CSR adjacency of each of its targets, so it costs
// its targets' degrees. Relations are pooled per worker so the steady-state DFS
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
// relations. The census subtree split granularity (128 pairs of a
// prefix relation) is fixed inside internal/paths. Every setting produces
// bit-identical results — these are performance knobs only.
package pathsel

import (
	"fmt"
	"io"

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

// Graph is a directed edge-labeled graph. Vertices are dense integers
// [0, NumVertices); labels are referenced by name. It holds one form at a
// time: a builder while edges are added, and only its immutable CSR from
// the first call that reads it whole (Build, TrueSelectivity,
// TruePatternSelectivity, TruePatternBagSelectivity, WriteEdgeList). An
// AddEdge on a frozen Graph thaws it back into a builder in O(|E|); an
// Estimator already built from it keeps the CSR it was built on.
type Graph struct {
	vocab
	n      int          // |V|
	g      *graph.Graph // the builder; nil while frozen
	frozen *graph.CSR   // the CSR; nil while building
}

// vocab is a label vocabulary, indexed both ways. A Graph and every
// Estimator built from it share one, and nothing changes it once built.
type vocab struct {
	ids   map[string]int // label name → label id
	names []string       // label id → name
}

// Labels returns the label vocabulary — what a serving tier advertises so
// clients can form valid queries.
func (v *vocab) Labels() []string { return append([]string(nil), v.names...) }

// parsePath resolves a label path against the vocabulary through
// Compile's grammar (compileRPQ) — "a/b/c", and equally a pattern whose
// every element is one label taken once, such as "a{1}/(b)/(c|c)". A
// pattern the grammar refuses fails as Compile does (ErrEmptyPath,
// ErrBadPattern, ErrUnknownLabel); one it reads as more than one label
// path — an alternation, a repetition, an optional label, a wildcard over
// more than one label — is ErrBadPattern.
func (v *vocab) parsePath(q string) (paths.Path, error) {
	d, err := v.compileRPQ(q)
	if err != nil {
		return nil, err
	}
	p, ok := d.ConcretePath()
	if !ok {
		return nil, fmt.Errorf("%w: pattern %q is not a single label path", ErrBadPattern, q)
	}
	return p, nil
}

// NewGraph returns an empty graph with the given vertex count and label
// vocabulary. It panics on an empty vocabulary, a name no query can
// address or a repeated name; NewGraphChecked is the error-returning form.
func NewGraph(numVertices int, labels []string) *Graph {
	gr, err := NewGraphChecked(numVertices, labels)
	if err != nil {
		panic(err.Error())
	}
	return gr
}

// NewGraphChecked is NewGraph returning a typed error instead of
// panicking: an empty label vocabulary yields ErrNoLabels, a name the
// query grammar reads as syntax ErrBadLabelName, a name given twice
// ErrDuplicateLabel.
func NewGraphChecked(numVertices int, labels []string) (*Graph, error) {
	if len(labels) == 0 {
		return nil, ErrNoLabels
	}
	g := graph.New(numVertices, len(labels))
	for i, name := range labels {
		g.SetLabelName(i, name)
	}
	return newGraph(g)
}

// LoadEdgeList reads a whitespace-separated `src dst label` edge list
// (lines starting with % or # are comments). A label name the query
// grammar reads as syntax fails it with ErrBadLabelName, as in
// NewGraphChecked.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	g, err := dataset.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return newGraph(g)
}

// newGraph wraps a builder and indexes its vocabulary (newVocab).
func newGraph(g *graph.Graph) (*Graph, error) {
	names := make([]string, g.NumLabels())
	for l := range names {
		names[l] = g.LabelName(l)
	}
	v, err := newVocab(names)
	if err != nil {
		return nil, err
	}
	return &Graph{vocab: v, n: g.NumVertices(), g: g}, nil
}

// newVocab indexes a label vocabulary, a built graph's or a loaded
// synopsis's: a name the query grammar reads as syntax fails with
// ErrBadLabelName, a name given twice with ErrDuplicateLabel.
func newVocab(names []string) (vocab, error) {
	v := vocab{ids: make(map[string]int, len(names)), names: names}
	for l, name := range names {
		if !addressable(name) {
			return vocab{}, fmt.Errorf("%w %q", ErrBadLabelName, name)
		}
		if _, dup := v.ids[name]; dup {
			return vocab{}, fmt.Errorf("%w %q", ErrDuplicateLabel, name)
		}
		v.ids[name] = l
	}
	return v, nil
}

// AddEdge inserts a directed labeled edge. It returns an error for unknown
// labels or out-of-range vertices (and reports duplicate edges as a no-op
// false). On a frozen Graph it first thaws the CSR back into a builder.
func (gr *Graph) AddEdge(src int, label string, dst int) (bool, error) {
	l, ok := gr.ids[label]
	if !ok {
		return false, fmt.Errorf("%w %q", ErrUnknownLabel, label)
	}
	if src < 0 || src >= gr.n || dst < 0 || dst >= gr.n {
		return false, fmt.Errorf("%w: edge (%d,%d) outside [0,%d)",
			ErrVertexRange, src, dst, gr.n)
	}
	if gr.g == nil {
		gr.g, gr.frozen = gr.frozen.Thaw(), nil
	}
	return gr.g.AddEdge(src, l, dst), nil
}

// NumVertices returns |V|.
func (gr *Graph) NumVertices() int { return gr.n }

// NumEdges returns |E|.
func (gr *Graph) NumEdges() int {
	if gr.g == nil {
		return gr.frozen.NumEdges()
	}
	return gr.g.NumEdges()
}

// WriteEdgeList writes the graph in the loader's format, freezing it.
func (gr *Graph) WriteEdgeList(w io.Writer) error {
	return dataset.WriteEdgeList(w, gr.csr())
}

// csr freezes the graph — the builder becomes its CSR and is dropped —
// and returns the CSR.
func (gr *Graph) csr() *graph.CSR {
	if gr.frozen == nil {
		gr.frozen, gr.g = gr.g.Freeze(), nil
	}
	return gr.frozen
}

// TrueSelectivity evaluates the path query exactly: the number of distinct
// vertex pairs connected by the label path (slash-separated label names,
// in Compile's grammar; see Estimate).
func (gr *Graph) TrueSelectivity(q string) (int64, error) {
	p, err := gr.parsePath(q)
	if err != nil {
		return 0, err
	}
	return paths.Selectivity(gr.csr(), p), nil
}

// Config parameterizes Build.
type Config struct {
	// MaxPathLength is k, the maximum label-path length covered (1 to 16,
	// the longest a saved synopsis holds).
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
	// relation's source rows across the same scheduling substrate —
	// every execution at this setting, concurrent ones included. A
	// query's steps run one after another (a bushy plan's two halves
	// included), so results, and every ExecStats field but Sched, are
	// bit-identical at every setting. GOMAXPROCS is re-read at use time
	// (sched.WorkerCount). Workers is a ceiling, not a count to start: a
	// scheduler round starts a worker only when a task is waiting for it,
	// so a step with fewer shards than workers, or a census with fewer
	// subtrees, starts no idle goroutine.
	Workers int
	// DensityThreshold tunes the hybrid relation rows of the census and
	// of every execution (Expr.ExecuteCtx): a row
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
	// plan whenever linear growth is estimated cheaper. Under CacheBytes
	// the search also sees the cache as it is when Compile runs: a
	// segment cached then is free to build. Every plan produces identical
	// results — this knob only changes which plan is chosen, and so how
	// much intermediate work execution does.
	BushyPlans bool
	// CacheBytes, when > 0, gives the estimator a persistent
	// segment-relation cache of that byte budget (internal/relcache):
	// every Expr.ExecuteCtx call then reuses
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
	// The cache is bound to this estimator's graph: the CSR it was built
	// on, which an AddEdge to the Graph afterwards does not change. 0
	// leaves every execution uncached. Caching never
	// changes results — adopted relations are bit-identical to recomputed
	// ones — though with BushyPlans set it steers the plan Compile
	// chooses (a segment cached at Compile costs nothing to build, so
	// queries compiled warm favor bushy joins of reusable segments); a
	// handle runs the plan it was compiled with whatever the cache holds
	// by then.
	CacheBytes int64
	// CacheShards is the cache's shard count (≤ 0 selects an
	// 8-shard default). Shards bound lock contention when
	// Expr.ExecuteCtx calls run concurrently; each shard owns an equal
	// slice of CacheBytes.
	CacheShards int

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
	return nil
}

// Estimator answers approximate path-selectivity queries from a compact
// histogram, without access to the original distribution: it is the
// synopsis LoadEstimator restores (Estimate, EstimatePrefix, Labels,
// Ordering, Buckets, MaxPathLength, DomainSize), plus the CSR it was built
// on, which every compiled query executes on and the True* methods and
// Evaluate compute their exact answers from. The census Build counts is
// dropped once the histogram is built. The Estimator is a snapshot: an
// edge added to the Graph after Build changes neither the CSR nor the
// histogram or the cache; Build again to see it.
type Estimator struct {
	synopsis
	csr   *graph.CSR // the graph as Build froze it
	cfg   Config
	cache *relcache.Cache // persistent segment-relation cache; nil unless Config.CacheBytes > 0
	pool  *exec.RelPool   // shared relation free list; abort paths drain back into it
	pl    exec.Planner    // the histogram's planner; under a cache and BushyPlans, Compile plans against it
}

// Build computes the exact selectivity distribution of all label paths up
// to cfg.MaxPathLength, arranges it with the configured ordering, and
// compresses it into a β-bucket histogram. Before the census it refuses a
// shape LoadEstimator would: k past 16, a domain past int64, or a
// sum-based ordering of more than 1<<20 label multisets.
func Build(gr *Graph, cfg Config) (*Estimator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g := gr.csr()
	ph, err := core.BuildForGraph(g, cfg.Ordering, cfg.Histogram,
		cfg.MaxPathLength, cfg.Buckets, cfg.censusOptions())
	if err != nil {
		return nil, err
	}
	e := &Estimator{synopsis: synopsis{vocab: gr.vocab, ph: ph}, csr: g, cfg: cfg}
	// One relation pool for the estimator's lifetime: every
	// Expr.ExecuteCtx draws its materialized
	// relations here and releases them on completion and on every abort
	// path, so cancelled queries leave no orphaned buffers behind (and
	// warm workloads stop allocating).
	e.pool = exec.NewRelPool(g.NumVertices(), cfg.DensityThreshold)
	if cfg.CacheBytes > 0 {
		e.cache = relcache.New(relcache.Options{MaxBytes: cfg.CacheBytes, Shards: cfg.CacheShards})
	}
	e.pl = exec.NewPlanner(ph, e.cache, cfg.BushyPlans)
	return e, nil
}

// censusOptions are the census engine's settings: the configured Workers
// and DensityThreshold.
func (c *Config) censusOptions() paths.CensusOptions {
	return paths.CensusOptions{Workers: c.Workers, DensityThreshold: c.DensityThreshold}
}

// TruePrefixSelectivity returns the exact aggregate selectivity of the
// path and all of its extensions up to MaxPathLength. Each call counts the
// path's subtree of the census on the estimator's CSR, at its Workers and
// DensityThreshold — a share of a Build's census, not a lookup.
func (e *Estimator) TruePrefixSelectivity(q string) (int64, error) {
	p, err := e.parsePath(q)
	if err != nil {
		return 0, err
	}
	return paths.PrefixSelectivity(e.csr, p, e.MaxPathLength(), e.cfg.censusOptions()), nil
}

// TrueSelectivity returns the exact f(ℓ), evaluating the path on the CSR
// the estimator was built on.
func (e *Estimator) TrueSelectivity(q string) (int64, error) {
	p, err := e.parsePath(q)
	if err != nil {
		return 0, err
	}
	return paths.Selectivity(e.csr, p), nil
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

// Evaluate measures the estimator against the exact selectivity of every
// path in Lk. Each call counts a census of the estimator's CSR, at its
// Workers and DensityThreshold — the cost of a Build's census.
func (e *Estimator) Evaluate() Accuracy {
	ev := core.Evaluate(e.ph, paths.NewCensusHybrid(e.csr, e.MaxPathLength(), e.cfg.censusOptions()))
	return Accuracy{
		MeanErrorRate: ev.MeanErrorRate,
		MeanQError:    ev.MeanQError,
		MaxAbsError:   ev.MaxAbsError,
		Paths:         e.DomainSize(),
	}
}
