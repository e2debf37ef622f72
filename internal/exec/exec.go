package exec

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// Plan is a zig-zag join plan for a length-k path query: begin with the
// single-label relation at position Start, extend right to the end of the
// path, then prepend the remaining labels leftward. Start 0 is the
// classic forward (left-to-right) plan, Start k−1 the backward plan;
// interior starts let the join begin at the most selective label, which
// neither endpoint plan can reach.
type Plan struct {
	// Start is the position of the label the join grows from, in [0, k).
	Start int
}

// Describe renders the plan for a length-k query: "forward", "backward",
// or "zigzag@i" for interior starts.
func (pl Plan) Describe(k int) string {
	switch {
	case pl.Start == 0:
		return "forward"
	case pl.Start == k-1:
		return "backward"
	default:
		return fmt.Sprintf("zigzag@%d", pl.Start)
	}
}

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
	// each compose step are partitioned into shards and distributed over
	// the shared work-stealing scheduler (internal/sched), then merged
	// deterministically, so results are bit-identical at every setting —
	// another performance-only knob. Relations too small to shard
	// profitably execute sequentially regardless.
	Workers int
	// Cache is the shared segment-relation cache (nil disables caching).
	// Execution consults it at every segment boundary: a segment of
	// length ≥ 2 whose relation is already cached — by an earlier query
	// of the workload, an earlier step of this query, or another worker
	// running concurrently — is adopted by copy instead of composed, and
	// every freshly composed segment is published back. Adoption is
	// bit-identical to recomputation (entries from a different universe
	// or density regime are ignored, and relation construction is
	// deterministic), so hit/miss order never changes results — only
	// Stats.CacheHits/CacheMisses and, on a whole-query hit, the
	// intermediate bookkeeping. A cache is bound to one graph; sharing
	// it across graphs returns wrong relations.
	Cache *relcache.Cache
	// Cancel, when non-nil, makes the execution cooperatively
	// cancellable: the executor consults it at every join step, and its
	// kernel flag is wired into every compose scratch so even one huge
	// step aborts with bounded latency. A cancelled execution returns
	// the canceller's cause (ErrCancelled, ErrDeadlineExceeded, or
	// ErrBudgetExceeded).
	Cancel *Canceller
	// MaxResultBytes, when > 0, bounds every relation the execution
	// materializes — single-label bases included — priced at clone size
	// (content bytes). The first base, intermediate or result over the
	// bound aborts the execution with
	// ErrBudgetExceeded — the executable form of the paper's thesis that
	// intermediate volume is what makes a path query expensive.
	MaxResultBytes int64
	// Pool, when non-nil, supplies every relation the execution
	// materializes and reclaims them on completion and on every abort
	// path. Purely an allocation/leak-hygiene knob — results are
	// identical with or without it.
	Pool *RelPool
	// KeepResult makes the execution return its result relation, checked
	// out of Pool for the caller to release with Pool.Put when done
	// reading. Unset — the default, and what every caller that only wants
	// the answer |ℓ(G)| and the Stats should leave it — the returned
	// relation is nil and the result is not built when it need not be:
	// the root's final join step runs the count kernels
	// (bitset.ComposeCount / JoinCount) whenever its output would not be
	// published to Cache, and a result that had to be built anyway (a
	// cache adoption, a published or unioned result, a single-label
	// query) is released before returning. Stats and the
	// MaxResultBytes boundary are identical either way.
	KeepResult bool
}

// Stats reports what an execution actually did.
type Stats struct {
	// Plan is the executed zig-zag join plan. For a bushy execution (a
	// join node at the root) or an RPQ there is no single zig-zag start;
	// Plan.Start is −1 and Tree holds a bushy execution's real plan.
	Plan Plan
	// Tree is the executed plan tree, set by ExecuteTreeChecked (nil
	// otherwise). A leaf tree is exactly a zig-zag plan.
	Tree *PlanTree
	// Intermediates holds the distinct-pair count of every relation
	// entering a join step (the final result is Result). For zig-zag
	// plans that is len(p)−1 entries in step order; for a bushy tree it
	// is every materialized segment — each leaf's intermediates plus both
	// inputs of each relation×relation join — in the executor's
	// deterministic post-order. These are exactly the selectivities of
	// the plan's interior segments, so estimating them well is estimating
	// the plan's cost well.
	Intermediates []int64
	// Work is the total intermediate volume Σ Intermediates — the cost a
	// join-order optimizer tries to minimize.
	Work int64
	// Result is |ℓ(G)|, identical for every plan.
	Result int64
	// CacheHits and CacheMisses count the execution's segment-cache
	// traffic when Options.Cache is set (both zero otherwise): a hit is a
	// segment adopted from the cache instead of composed, a miss is a
	// cacheable segment (length ≥ 2) that had to be computed and was
	// published back. A whole-query hit short-circuits execution
	// entirely — then Intermediates is empty and Work 0, because nothing
	// intermediate was materialized.
	CacheHits, CacheMisses int
	// Sched reports the execution's scheduler activity — how the sharded
	// join steps actually ran. All-zero when every step fell below the
	// granularity floor (or on a whole-query cache hit, which never
	// builds a scheduler): sequential steps bypass the scheduler
	// entirely, so zeros mean "no parallel work", not "no work".
	Sched SchedStats
}

// SchedStats aggregates work-stealing scheduler counters over an
// execution: one stepper's rounds for a zig-zag plan, every stepper in
// the tree for a bushy plan. Steals and Parks are the contention
// signals — a steal is a shard that migrated off its home worker, a park
// is a worker that went to sleep hungry — and their ratio to Tasks is
// what the granularity floor (internal/sched.Granularity) exists to keep
// low.
type SchedStats struct {
	// Tasks is the total number of scheduler tasks executed (compose,
	// join, and merge shards).
	Tasks int64
	// Steals counts tasks taken from another worker's deque.
	Steals int64
	// Parks counts workers going to sleep after finding every deque
	// empty.
	Parks int64
	// TasksPerWorker breaks Tasks down by worker index. Bushy plans run
	// several steppers with their own worker sets, possibly of different
	// widths; slots add up across them, so the slice length is the widest
	// scheduler seen.
	TasksPerWorker []int64
}

// merge folds another aggregate in: a core's own stepper, or a fork that
// aggregated independently before its join.
func (s *SchedStats) merge(o SchedStats) {
	s.Tasks += o.Tasks
	s.Steals += o.Steals
	s.Parks += o.Parks
	for len(s.TasksPerWorker) < len(o.TasksPerWorker) {
		s.TasksPerWorker = append(s.TasksPerWorker, 0)
	}
	for i, v := range o.TasksPerWorker {
		s.TasksPerWorker[i] += v
	}
}

// ExecutePlanChecked evaluates p over g with the given zig-zag plan,
// entirely on the hybrid sparse/dense substrate: two pooled relations are
// double-buffered through the specialized sparse×CSR / dense×CSR compose
// kernels, and each row adapts its representation per step (a prefix that
// densifies mid-join promotes in place; one that thins back out demotes).
// Rightward steps compose with successor operands; leftward steps reverse
// once and compose with predecessor operands, so no step ever multiplies
// from the expensive side.
//
// Each compose step runs on Options.Workers work-stealing workers
// (default GOMAXPROCS): the input relation's source rows are partitioned
// into shards, composed concurrently into the shared destination (rows
// are disjoint across shards), and merged deterministically, so the
// result is bit-identical to sequential execution at every worker count.
//
// Like every entry point it runs under the checked contract: it consults
// Options.Cancel before and after every join step (and wires its kernel
// flag into the compose scratches, so cancellation lands mid-step too),
// prices every materialized relation against Options.MaxResultBytes, and
// contains panics as typed errors. On error the returned relation is
// nil, every pooled relation has been released back to Options.Pool, and
// the error matches ErrCancelled / ErrDeadlineExceeded /
// ErrBudgetExceeded under errors.Is (or *sched.PanicError under
// errors.As for a contained panic). A surviving execution — cancelled
// after its last step or not cancelled at all — is bit-identical to
// ExecuteDense. It panics on an empty path or an out-of-range plan start
// (caller bugs, not runtime failures).
func ExecutePlanChecked(g *graph.CSR, p paths.Path, plan Plan, opt Options) (*bitset.HybridRelation, Stats, error) {
	k := len(p)
	if k == 0 {
		panic("exec: empty path query")
	}
	if plan.Start < 0 || plan.Start >= k {
		panic(fmt.Sprintf("exec: plan start %d out of range [0,%d)", plan.Start, k))
	}
	x := newCore(g, opt)
	rel, st, err := x.finish(func() (*bitset.HybridRelation, error) { return x.leaf(p, plan.Start, true) })
	st.Plan = plan
	return rel, st, err
}

// leaf builds segment p with the zig-zag plan growing from position
// start, double-buffering two relations through the core's stepper. A
// root leaf that may count (see counts) counts its last step — the one
// whose segment is all of p, in either direction — and returns no
// relation.
func (x *core) leaf(p paths.Path, start int, root bool) (*bitset.HybridRelation, error) {
	cur, hit, err := x.whole(p)
	if hit || err != nil {
		return cur, err
	}
	if err := x.fill(cur, p[start:start+1]); err != nil || len(p) == 1 {
		return cur, err
	}
	buf := x.take()
	count := root && x.counts(p)
	// grow runs one join step cur ∘ op → buf and swaps the buffers; cur
	// is the finished segment seg's input, whose size is the step's
	// recorded intermediate. The counted last step has no destination.
	grow := func(seg paths.Path, reversed bool, op bitset.CSROperand) error {
		x.ints = append(x.ints, cur.Pairs())
		dst := buf
		if count && len(seg) == len(p) {
			dst = nil
		}
		err := x.step(seg, reversed, dst, func() error { return x.compose(cur, dst, op) })
		cur, buf = buf, cur
		return err
	}
	// Grow rightward: cur holds the segment p[start:j).
	for j := start + 1; j < len(p); j++ {
		if err := grow(p[start:j+1], false, x.g.LabelOperand(p[j])); err != nil {
			return nil, err
		}
	}
	// Grow leftward on the reversed relation: prepending label l to a
	// segment is composing the reversed segment with l's predecessor
	// operand. Reversal is linear and does not change Pairs, so the
	// recorded intermediates are still segment selectivities. Leftward
	// segments are cached in their reversed orientation — a different
	// pair set than the forward segment, hence the orientation marker;
	// the orientation-canonical cache derives the forward form for the
	// whole-segment fast path.
	if start > 0 {
		cur.ReverseInto(buf)
		cur, buf = buf, cur
		for i := start - 1; i >= 0; i-- {
			if err := grow(p[i:], true, x.g.PredecessorOperand(p[i])); err != nil {
				return nil, err
			}
		}
		if !count {
			// A counted result has no orientation to restore.
			cur.ReverseInto(buf)
			cur, buf = buf, cur
		}
	}
	x.drop(buf)
	if count {
		x.drop(cur)
		return nil, nil
	}
	return cur, nil
}
