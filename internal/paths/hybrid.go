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

// censusWorker is one worker's private state: a relation free list, a
// compose accumulator and the leaves' fused accumulator, indexed by the
// scheduler's worker id so no synchronization is ever needed.
type censusWorker struct {
	pool    sched.Pool[*bitset.HybridRelation]
	scratch *bitset.ComposeScratch
	leaves  *bitset.ComposeScratch
}

// censusEngine is the census client of the shared work-stealing scheduler
// (internal/sched): tasks are trie subtrees, spawned dynamically whenever
// a prefix's selectivity reaches split.
type censusEngine struct {
	c       *Census
	ops     []bitset.CSROperand
	fused   *bitset.FusedOperand // every label's CSR, vertex-major, for the leaves
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
	return mustCensus(newCensusHybrid(g, k, opt, splitPairs, nil))
}

// NewCensusHybridChecked is NewCensusHybrid with failure containment: a
// panic in any census worker (including one injected at the sched.task
// fault site) is recovered by the scheduler, stops the sibling
// workers, and comes back as a typed *sched.PanicError instead of
// crashing the process. An aborted build leaks no goroutine; the subtree
// relations its dropped tasks held go to the garbage collector with the
// rest of the failed census.
func NewCensusHybridChecked(g *graph.CSR, k int, opt CensusOptions) (*Census, error) {
	return newCensusHybrid(g, k, opt, splitPairs, nil)
}

// PrefixSelectivity returns the census's PrefixSelectivity(p) — Σ f(ℓ) over
// p and its extensions up to length k — counting p's subtree alone: the
// engine is seeded with p's relation, so no other prefix is expanded.
func PrefixSelectivity(g *graph.CSR, p Path, k int, opt CensusOptions) int64 {
	return mustCensus(newCensusHybrid(g, k, opt, splitPairs, p)).PrefixSelectivity(p)
}

// mustCensus re-raises a census failure on the caller. The census runs no
// caller code, so the only failure is a contained worker panic.
func mustCensus(c *Census, err error) *Census {
	if err != nil {
		panic(fmt.Sprintf("paths: census build failed: %v", err))
	}
	return c
}

// newCensusHybrid is NewCensusHybridChecked offering a subtree to the
// deques once its prefix selectivity reaches split pairs. A nil prefix
// seeds one task per first label; a given one seeds its own subtree only,
// and the other slots stay zero.
func newCensusHybrid(g *graph.CSR, k int, opt CensusOptions, split int64, prefix Path) (*Census, error) {
	if k < 1 {
		panic(fmt.Sprintf("paths: census needs k ≥ 1, got %d", k))
	}
	opt.Workers = sched.WorkerCount(opt.Workers)
	n, nl := g.NumVertices(), g.NumLabels()
	c := &Census{numLabels: nl, k: k, freq: make([]int64, combinat.GeometricSum(int64(nl), int64(k)))}
	e := &censusEngine{
		c:       c,
		ops:     g.Operands(),
		workers: make([]censusWorker, opt.Workers),
		split:   split,
	}
	e.fused = bitset.FuseOperands(n, e.ops)
	e.sch = sched.New(opt.Workers, e.runTask)
	for i := range e.workers {
		e.workers[i] = censusWorker{
			pool:    sched.Pool[*bitset.HybridRelation]{New: func() *bitset.HybridRelation { return bitset.NewHybrid(n, opt.DensityThreshold) }},
			scratch: bitset.NewComposeScratch(n),
			leaves:  e.fused.NewScratch(),
		}
	}
	// Seed: one task per non-empty seed subtree, round-robin across
	// deques. Deeper splits happen dynamically as workers expand.
	seeds := []Path{prefix}
	if prefix == nil {
		seeds = make([]Path, nl)
		for l := range seeds {
			seeds[l] = Path{l}
		}
	}
	for i, s := range seeds {
		rel := EvaluateWithDensity(g, s, opt.DensityThreshold)
		c.freq[CanonicalIndex(s, nl, k)] = rel.Pairs()
		if len(s) == k || rel.Pairs() == 0 {
			continue
		}
		e.sch.Spawn(i, censusTask{p: append(make(Path, 0, k), s...), rel: rel})
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

// expand records the frequency of every child of prefix p — |L|
// contiguous slots in canonical order — and either recurses inline
// (reusing pooled relations) or re-enqueues large subtrees for stealing.
// The children of a depth k−1 prefix are the trie's leaves — |L|^k of its
// Σ|L|^i paths — and nothing ever extends them, so that level is counted,
// never built, and for every label in one pass: CountLabels scatters each
// target's fused adjacency once and writes all |L| counts. p must have
// capacity ≥ k so appends never reallocate.
func (e *censusEngine) expand(worker int, w *censusWorker, p Path, rel *bitset.HybridRelation) {
	nl := e.c.numLabels
	base := CanonicalIndex(append(p, 0), nl, e.c.k)
	if len(p)+1 == e.c.k {
		rel.Rows().CountLabels(e.fused, w.leaves, e.c.freq[base:base+int64(nl)])
		return
	}
	for l := 0; l < nl; l++ {
		child := w.pool.Get()
		pairs := rel.ComposeInto(child, e.ops[l], w.scratch)
		e.c.freq[base+int64(l)] = pairs
		if pairs == 0 {
			w.pool.Put(child)
			continue
		}
		cp := append(p, l)
		if pairs >= e.split {
			e.sch.Spawn(worker, censusTask{p: append(make(Path, 0, e.c.k), cp...), rel: child})
		} else {
			e.expand(worker, w, cp, child)
			w.pool.Put(child)
		}
	}
}
