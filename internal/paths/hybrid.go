package paths

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/combinat"
	"repro/internal/graph"
	"repro/internal/sched"
)

// splitPairs is the minimum prefix selectivity at which a census subtree
// becomes a stealable task instead of being expanded inline. Below it, a
// subtree composes in roughly the time a deque handoff costs, so splitting
// would only add overhead.
const splitPairs = 128

// CensusOptions tunes the hybrid census engine.
type CensusOptions struct {
	// Workers is the goroutine count (≤ 0 means GOMAXPROCS). Unlike the
	// old per-first-label parallelism, workers are not capped at |L|:
	// subtrees split at any trie depth.
	Workers int
	// DensityThreshold is the sparse→dense promotion threshold as a
	// fraction of |V| (≤ 0 selects bitset.DefaultDensityThreshold, ≥ 1
	// keeps every row sparse).
	DensityThreshold float64
}

// censusTask is one stealable unit of census work: a label-path prefix
// whose frequency is already recorded and whose relation is rel; the task
// is to expand its subtree. Ownership of rel transfers with the task.
type censusTask struct {
	p   Path
	rel *bitset.HybridRelation
}

// censusWorker is one worker's private state: a relation free list and a
// compose accumulator, indexed by the scheduler's worker id so no
// synchronization is ever needed.
type censusWorker struct {
	pool    sched.Pool[*bitset.HybridRelation]
	scratch *bitset.ComposeScratch
}

// censusEngine is the census client of the shared work-stealing scheduler
// (internal/sched): tasks are trie subtrees, spawned dynamically whenever
// a prefix's selectivity reaches split.
type censusEngine struct {
	c       *Census
	ops     []bitset.CSROperand
	sch     *sched.Scheduler[censusTask]
	workers []censusWorker
	split   int64
}

// NewCensusHybrid computes the exact census on the hybrid sparse/dense
// substrate: per-row adaptive representations, per-worker
// relation pools (allocation-free steady state), and the shared
// work-stealing scheduler (internal/sched) splitting subtrees at any trie
// depth, so skewed label distributions keep every worker busy. The result
// is bit-identical to the sequential dense reference census of
// internal/oracle (test-only) — the engine changes how frequencies are
// computed, never their values.
func NewCensusHybrid(g *graph.CSR, k int, opt CensusOptions) *Census {
	c, err := NewCensusHybridChecked(g, k, opt)
	if err != nil {
		// The census runs no caller code, so the only failure is a
		// contained worker panic — re-raise it on the caller.
		panic(fmt.Sprintf("paths: census build failed: %v", err))
	}
	return c
}

// NewCensusHybridChecked is NewCensusHybrid with failure containment: a
// panic in any census worker (including one injected at the sched.task
// fault site) is recovered by the scheduler, stops the sibling
// workers, and comes back as a typed *sched.PanicError instead of
// crashing the process. An aborted build leaks no goroutine; the subtree
// relations its dropped tasks held go to the garbage collector with the
// rest of the failed census.
func NewCensusHybridChecked(g *graph.CSR, k int, opt CensusOptions) (*Census, error) {
	return newCensusHybrid(g, k, opt, splitPairs)
}

// newCensusHybrid is NewCensusHybridChecked offering a subtree to the
// deques once its prefix selectivity reaches split pairs.
func newCensusHybrid(g *graph.CSR, k int, opt CensusOptions, split int64) (*Census, error) {
	if k < 1 {
		panic(fmt.Sprintf("paths: census needs k ≥ 1, got %d", k))
	}
	opt.Workers = sched.WorkerCount(opt.Workers)
	c := &Census{
		numLabels: g.NumLabels(),
		k:         k,
		freq:      make([]int64, combinat.GeometricSum(int64(g.NumLabels()), int64(k))),
	}
	e := &censusEngine{
		c:       c,
		ops:     g.Operands(),
		workers: make([]censusWorker, opt.Workers),
		split:   split,
	}
	e.sch = sched.New(opt.Workers, e.runTask)
	n, density := g.NumVertices(), opt.DensityThreshold
	for i := range e.workers {
		e.workers[i] = censusWorker{
			pool:    sched.Pool[*bitset.HybridRelation]{New: func() *bitset.HybridRelation { return bitset.NewHybrid(n, density) }},
			scratch: bitset.NewComposeScratch(n),
		}
	}
	// Seed: one task per non-empty first-label subtree, round-robin across
	// deques. Deeper splits happen dynamically as workers expand.
	for l := 0; l < c.numLabels; l++ {
		rel := bitset.HybridFromCSR(e.ops[l], opt.DensityThreshold)
		p := make(Path, 1, k)
		p[0] = l
		c.freq[CanonicalIndex(p, c.numLabels, c.k)] = rel.Pairs()
		if k == 1 || rel.Pairs() == 0 {
			continue
		}
		e.sch.Spawn(l, censusTask{p: p, rel: rel})
	}
	if err := e.sch.Drain(); err != nil {
		return nil, err
	}
	return c, nil
}

// runTask is the scheduler task body: expand the subtree on the executing
// worker's pooled state, then retire the task's relation into that
// worker's pool (stolen tasks carry their relation across workers).
func (e *censusEngine) runTask(worker int, t censusTask) {
	w := &e.workers[worker]
	e.expand(worker, w, t.p, t.rel)
	w.pool.Put(t.rel)
}

// expand records the frequency of every child of prefix p and either
// recurses inline (reusing pooled relations) or re-enqueues large subtrees
// for stealing. The children of a depth k−1 prefix are the trie's leaves —
// |L|^k of its Σ|L|^i paths — and nothing ever extends them, so that level
// is counted — the step kernel run with no destination — never built. p
// must have capacity ≥ k so appends never reallocate.
func (e *censusEngine) expand(worker int, w *censusWorker, p Path, rel *bitset.HybridRelation) {
	leaves := len(p)+1 == e.c.k
	for l := 0; l < e.c.numLabels; l++ {
		cp := append(p, l)
		if leaves {
			_, c := rel.Rows().ComposeShard(nil, e.ops[l:l+1], w.scratch, rel.SparseMax(), 0, rel.Sources(), nil)
			e.c.freq[CanonicalIndex(cp, e.c.numLabels, e.c.k)] = c.Pairs
			continue
		}
		child := w.pool.Get()
		pairs := rel.ComposeInto(child, e.ops[l], w.scratch)
		e.c.freq[CanonicalIndex(cp, e.c.numLabels, e.c.k)] = pairs
		if pairs == 0 {
			w.pool.Put(child)
			continue
		}
		if pairs >= e.split {
			tp := make(Path, len(cp), e.c.k)
			copy(tp, cp)
			e.sch.Spawn(worker, censusTask{p: tp, rel: child})
		} else {
			e.expand(worker, w, cp, child)
			w.pool.Put(child)
		}
	}
}
