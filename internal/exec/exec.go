package exec

import (
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/relcache"
	"repro/internal/sched"
)

// Options tunes plan execution.
type Options struct {
	// DensityThreshold is the hybrid rows' sparse→dense promotion
	// threshold as a fraction of |V| (≤ 0 selects
	// bitset.DefaultDensityThreshold of 1/32; ≥ 1 keeps every row
	// sparse). Purely a performance knob — results are identical at any
	// setting.
	DensityThreshold float64
	// Workers is the join-step parallelism (≤ 0 selects GOMAXPROCS, 1
	// runs fully sequential): the source rows of the relation entering
	// each step are partitioned into shards and distributed over the
	// shared work-stealing scheduler (internal/sched), then merged
	// deterministically. It is the execution's only parallelism — the
	// steps themselves, a bushy join's two children included, run one
	// after another — so results and every Stats field but Sched are
	// bit-identical at every setting: another performance-only knob.
	// A step too small to shard profitably (under the executor's row and
	// pair floors) runs on the caller's goroutine regardless, and a
	// sharded step starts no more workers than it has shards.
	Workers int
	// Cache is the shared segment-relation cache (nil disables caching).
	// Execution consults it at every segment boundary: a segment whose
	// relation is already cached — by an earlier query of the workload, an
	// earlier step of this query, or another worker running concurrently —
	// is adopted instead of composed, by copying the packed entry
	// (bitset.Packed) out into one of the execution's own relations, and
	// every freshly composed segment is published back, packed, as every
	// plan that reaches it builds and reads it: every relation is forward,
	// whichever way a leaf grew it, so a hit is a copy. A segment
	// is whatever has a key (relcache.AppendElem): a label subsequence of
	// length ≥ 2, and for a regular path query every prefix of its blocks
	// and every element that is more than one label read once — so a
	// repeated query is one adoption, whatever its shape. Adoption is
	// bit-identical to recomputation (entries from a different universe or
	// density regime are ignored, and relation construction is
	// deterministic), so hit/miss order never changes results — only
	// Stats.CacheHits/CacheMisses and, where a prefix or the whole query
	// was adopted, the intermediates of the steps that did not run. A
	// cache is bound to one graph; sharing it across graphs returns wrong
	// relations.
	Cache *relcache.Cache
	// Cancel, when non-nil, makes the execution cooperatively
	// cancellable: the executor consults it at every join step, and its
	// kernel flag is wired into every compose scratch so even one huge
	// step aborts with bounded latency. A cancelled execution returns
	// the canceller's cause, ErrCancelled or ErrDeadlineExceeded
	// (ErrBudgetExceeded comes from MaxResultBytes, never a canceller).
	Cancel *Canceller
	// MaxResultBytes, when > 0, bounds every relation the execution works
	// on, priced at clone size (bitset.HybridRelation.CloneMemSize: row
	// content plus one row header per vertex — the budget's own measure,
	// not the relation cache's, which packs): the relations it
	// materializes — bases, intermediates, the result — and the two it
	// works out the price of without building them, a leaf's start label
	// (read from the graph by the first step) and a counted result. The
	// first one over the bound aborts the execution with
	// ErrBudgetExceeded — the executable form of the paper's thesis that
	// intermediate volume is what makes a path query expensive. A label set
	// the fold composes through has no relation and so no price; what it
	// produces is priced like any step's output.
	MaxResultBytes int64
	// Pool, when non-nil, supplies every relation the execution
	// materializes and reclaims them on completion and on every abort
	// path; nil gives the execution a pool of its own, so an unpooled run
	// reuses relations from step to step too, and a shared pool reuses
	// them across executions. Purely an allocation/leak-hygiene knob —
	// results are identical with or without it.
	Pool *RelPool
	// KeepResult makes the execution return its result relation, checked out
	// of Pool for the caller to release with Pool.Put when done reading — or,
	// without a Pool, out of the execution's own, when it is the caller's to
	// drop. Unset — the default, and what every caller that only wants the
	// answer |ℓ(G)| and the Stats should leave it — the returned relation is
	// nil and the result is not built when it need not be: the root's final
	// join step runs its kernel with no destination, sinking every row into a
	// bitset.Count, whenever its output would not be published to Cache —
	// without a cache, that is, whatever the shape of the last block — and a
	// result that had to be built anyway (a cache adoption, a published
	// result, a single-label query) is released before returning. Stats and
	// the MaxResultBytes boundary are identical either way.
	KeepResult bool
}

// Stats reports what an execution actually did.
type Stats struct {
	// Intermediates holds the distinct-pair count of every relation
	// entering a join step (the final result is Result). For zig-zag
	// plans that is len(p)−1 entries in step order, the first the start
	// label's frequency; for a bushy tree it is every segment that is an
	// input — each leaf's intermediates plus both inputs of each
	// relation×relation join — in the executor's deterministic post-order.
	// A step node has one such input: it records only its child, the prefix
	// it composes through a label set (a label set is not a relation),
	// whether or not the prefix may be empty, and a join node both sides,
	// in an RPQ's fold the prefix and the block it had to build; an
	// unrolled element records
	// the input of each of its steps — a power, then the running union of
	// the powers past its lower bound. A step's ε and skip terms are not
	// inputs of their own. These are exactly the selectivities of the plan's
	// interior segments, so estimating them well is estimating the plan's
	// cost well.
	Intermediates []int64
	// Work is the total intermediate volume Σ Intermediates — the cost a
	// join-order optimizer tries to minimize, and what DagPlan.Cost
	// estimates.
	Work int64
	// Result is |ℓ(G)|, identical for every plan.
	Result int64
	// CacheHits and CacheMisses count the execution's segment-cache
	// traffic when Options.Cache is set (both zero otherwise): a hit is a
	// segment adopted from the cache instead of composed, a miss is a
	// cacheable segment — a label segment of length ≥ 2, a fold prefix, an
	// element's relation — that had to be computed and was published
	// back. A whole-query hit, a concrete path's or a regular path
	// query's alike, short-circuits execution entirely — then
	// Intermediates is empty and Work 0, because nothing intermediate was
	// materialized; a fold that resumed from a cached prefix reports the
	// intermediates of the steps after it only.
	CacheHits, CacheMisses int
	// Sched is the execution's scheduler activity — how its sharded
	// steps actually ran: tasks are shards, a steal is a shard that
	// migrated off its home worker, a park is a worker that went to sleep
	// hungry. All zero when every step fell below the sharding floors (or
	// on a whole-query cache hit, which never builds a scheduler): a
	// one-shard step bypasses the scheduler entirely, so zeros mean "no
	// parallel work", not "no work". It is the one field that depends on
	// Workers and on thread timing.
	Sched sched.Counters
}

// Run carries a plan out over g — the one way to execute a query. A plan
// is self-describing (it holds its query's elements, which its tree's
// intervals index), so there is no query argument to disagree with it; Run
// checks the plan's own consistency and panics on a malformed one (a caller
// bug, not a runtime failure). One walk runs every node of the tree
// (core.node). Execution is entirely on the hybrid sparse/dense
// substrate: a zig-zag leaf grows its segment one step at a time through
// the scatter compose kernel, which pushes each target's CSR row, each step
// into a fresh pooled relation and every row adapting its representation
// per step; its first step reads the start
// label's rows from the graph, rightward steps compose the segment with
// the next label's CSR, and leftward steps join the previous label's CSR
// rows with the segment, so every relation is forward. A join
// node builds its two segments in turn, left then right, and joins them
// with the sharded relation×relation kernel; a step node builds its child
// and composes it through one element's labels from the graph; an RPQ's
// plan is the left-deep chain of such nodes that folds its blocks left to
// right (see rpq.go).
//
// Each step runs on Options.Workers work-stealing workers (default
// GOMAXPROCS): the input relation's source rows are partitioned into
// shards, composed concurrently into the shared destination (rows are
// disjoint across shards), and merged deterministically. Steps are the
// only thing that runs in parallel: an execution is one strand of steps,
// so the result, the intermediates and the cache traffic are
// bit-identical to sequential execution at every worker count.
//
// Run is the checked contract: it consults Options.Cancel before and after
// every join step (and wires its kernel flag into the compose scratches,
// so cancellation lands mid-step too), prices every relation against
// Options.MaxResultBytes, and contains panics as typed errors. On
// error the returned relation is nil, every pooled relation has been
// released back to Options.Pool, and the error matches ErrCancelled /
// ErrDeadlineExceeded / ErrBudgetExceeded under errors.Is (or
// *sched.PanicError under errors.As for a contained panic). A surviving
// execution — cancelled after its last step or not cancelled at all — is
// bit-identical to the dense executor of internal/oracle (the test-only
// reference stack) on a concrete path, and on a regular path query to the
// union of the relations of every concrete path it expands to. The
// returned relation is nil unless Options.KeepResult is set.
//
// What is materialised is what some step reads as a relation: a
// single-label query's answer, a plan's first element, an unrolled
// element's base and its steps, and every step's output but a counted
// root's. What is not: the start label of a leaf of length ≥ 2 and a label
// set after the first block — both read in place from the CSR — the ε and
// skip terms a block that may match the empty path adds to a step, which
// are terms of its kernel and not unions after it, and, without a cache, a
// result nobody keeps. With a cache the root's last step is built and
// published like any other — a concrete path's, a fold's, a lone
// element's — and everything with a key is adopted where it is already
// there: a fold probes its prefixes longest first and resumes after the
// longest one cached, so the blocks before it are not run at all.
// Stats.Work counts every relation fed into a join step — a leaf's zig-zag
// intermediates, both inputs of every join node and of every
// block-boundary join, the one input of a step through a label set, the
// input of each of an unrolled element's steps — matching the planner's
// cost model: with an exact estimator and nothing cached, a concrete
// path's DagPlan.Cost equals its executed Work.
func Run(g *graph.CSR, plan *DagPlan, opt Options) (*bitset.HybridRelation, Stats, error) {
	plan.validate(g.NumLabels())
	x := newCore(g, opt)
	return x.finish(func() (*bitset.HybridRelation, error) { return x.node(plan.Elems, plan.Tree, true) })
}

// leaf builds the run of plain labels run with the zig-zag plan growing
// from position start, one step at a time, each into a relation it takes,
// releasing the segment it read once the step has run. Every step builds a
// forward segment: a rightward one composes the segment so far with the
// next label's CSR, p[lo:hi) ∘ L(p[hi]), and a leftward one joins the
// previous label's CSR rows with it, L(p[lo−1]) ∘ p[lo:hi) — a
// relation×relation join whose left side is read from the graph — so every
// relation is forward, and every segment is cached as its repeat and every
// other plan read it. The start label's own relation is never built: the
// first step reads its rows from the graph, as the left side of a
// rightward step or, leftward, as the operand the previous label's rows
// compose with. Its size, the first recorded intermediate, is the label's
// frequency, and its price under a budget is worked out from its row
// lengths (a counted fill), so nothing an execution reports can tell the
// relation was not there. A root leaf that may count (see counts) counts
// its last step — the one whose segment is the whole run — and returns no
// relation.
func (x *core) leaf(run []RPQElem, start int, root bool) (*bitset.HybridRelation, error) {
	var room [keyRoom]byte // every key of the leaf, one at a time
	key := x.key(room[:0], run)
	if rel, err := x.whole(key); rel != nil || err != nil {
		return rel, err
	}
	if len(run) == 1 {
		return x.fill(run[0].Labels, false)
	}
	if x.opt.MaxResultBytes > 0 {
		if _, err := x.fill(run[start].Labels, true); err != nil {
			return nil, err
		}
	}
	first := x.g.LabelOperand(run[start].Labels[0])
	count := root && x.counts(key)
	lo, hi := start, start+1
	var cur *bitset.HybridRelation // run[lo:hi), nil while it is the start label
	for hi-lo < len(run) {
		// The segment so far is the step's recorded intermediate.
		left, in := first.Rows(), int64(len(first.Targets))
		if cur != nil {
			left, in = cur.Rows(), cur.Pairs()
		}
		x.ints = append(x.ints, in)
		// Leftward, a nil cur makes the step compose with the start label.
		right, labels := cur, run[start].Labels
		if hi < len(run) {
			right, labels = nil, run[hi].Labels
			hi++
		} else {
			lo--
			left = x.g.LabelOperand(run[lo].Labels[0]).Rows()
		}
		// The whole run's key was probed by whole.
		next, err := x.step(x.key(room[:0], run[lo:hi]), hi-lo < len(run), count && hi-lo == len(run), left, right, labels)
		if err != nil {
			return nil, err
		}
		x.drop(cur)
		cur = next
	}
	return cur, nil
}
