package exec

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Shard sizing for parallel join steps. A shard is a contiguous run of the
// input relation's active-source list; row composes are independent, so
// work-stealing over several shards per worker absorbs row-weight skew
// without any per-row bookkeeping.
const (
	// minShardRows is the smallest active-source count worth handing to
	// another goroutine: below it one row range composes in roughly the
	// time a spawn/steal handoff costs.
	minShardRows = 32
	// minShardPairs is the work-weight sequential floor: a relation
	// carrying fewer pairs than twice this composes in a few microseconds
	// total, so sharding it buys nothing and feeds the steal path pure
	// contention. Row count alone cannot see this case — a short segment
	// can have many nearly-empty rows — which is why the granularity
	// policy weighs both axes.
	minShardPairs = 2048
	// shardsPerWorker oversubscribes the shard count so stolen shards can
	// rebalance a skewed row-weight distribution.
	shardsPerWorker = 4
)

// shardGrain is the executor's task-granularity policy: items are active
// source rows, work is the input relation's pair count. One policy value
// serves compose and join steps alike, so their sequential floors cannot
// drift apart.
var shardGrain = sched.Granularity{
	MinItems:  minShardRows,
	MinWork:   minShardPairs,
	PerWorker: shardsPerWorker,
}

// shardTask identifies one task of the current scheduler round by index:
// the shard of the bounds table it composes. Tasks own disjoint row
// ranges, so bodies write disjoint state — the determinism contract of
// internal/sched.
type shardTask struct{ idx int }

// stepper drives the sharded join steps of one execution core on the
// shared work-stealing scheduler (internal/sched). One stepper serves all
// k−1 steps of a plan: per-worker scratches, per-shard source buffers, and
// the scheduler itself persist across steps, so the steady state allocates
// nothing beyond first use.
type stepper struct {
	sch     *sched.Scheduler[shardTask]
	n       int
	limit   int                      // the promotion limit of the relations the steps build
	scratch []*bitset.ComposeScratch // lazily built, indexed by worker
	cancel  *bitset.CancelFlag       // wired into every scratch; nil when unchecked

	// The current step's operands, set by compose, first or join and dropped
	// when run returns. The left side is the relation cur, or — cur nil —
	// the rows of the CSR operand left, read in place (a leaf's first step).
	// The right side is the relation right, or — right nil — the union of
	// the label operands ops, a list in storage the stepper keeps across
	// steps, so no step puts one on the heap.
	cur, right *bitset.HybridRelation
	left       bitset.CSROperand
	ops        []bitset.CSROperand
	one        [1]bitset.CSROperand // ops' first storage: a lone operand allocates nothing

	// Per-round state of a sharded step, written by the coordinator between
	// Drain rounds and read by shard bodies during one. A nil dst makes the
	// step a counted one: shard bodies run the count kernels and park a
	// bitset.Count instead of sources.
	dst    *bitset.HybridRelation
	bounds []int          // shard i covers items [bounds[i], bounds[i+1])
	srcs   [][]int32      // per-shard produced sources, reused across steps
	pairs  []int64        // per-shard produced pair counts
	counts []bitset.Count // per-shard outcomes of a counted step
}

// newStepper returns a stepper for relations over an n-vertex universe with
// the given promotion limit, with sched.WorkerCount(workers) workers,
// clamped to the most shards any step over this universe can produce
// (n/minShardRows) — workers beyond that could never hold a shard and would
// only idle, park, and add steal scans. No goroutines or scratches are
// built until the first sharded step.
func newStepper(n, limit, workers int) *stepper {
	st := &stepper{n: n, limit: limit}
	st.ops = st.one[:0]
	w := sched.ClampWorkers(sched.WorkerCount(workers), n/minShardRows)
	st.sch = sched.New(w, st.runShard)
	st.scratch = make([]*bitset.ComposeScratch, st.sch.Workers())
	return st
}

// scr returns worker w's compose scratch, building it on first use. Only
// worker w's goroutine (or the coordinator between Drain rounds, for
// sequential fallback steps through worker 0) ever touches slot w, so no
// locking is needed.
func (st *stepper) scr(w int) *bitset.ComposeScratch {
	if st.scratch[w] == nil {
		st.scratch[w] = bitset.NewComposeScratch(st.n)
		st.scratch[w].SetCancel(st.cancel)
	}
	return st.scratch[w]
}

// setCancel wires a cancellation flag into every scratch (existing and
// future), so the kernels of each subsequent step poll it mid-row-loop.
func (st *stepper) setCancel(f *bitset.CancelFlag) {
	st.cancel = f
	for _, scr := range st.scratch {
		if scr != nil {
			scr.SetCancel(f)
		}
	}
}

// counters snapshots the stepper's scheduler activity for Stats.
func (st *stepper) counters() sched.Counters { return st.sch.Counters() }

// labelOps makes a label set the stepper's operand list: the CSR arrays
// alone for a base, which only reads rows, the dual form for the right
// side of a step.
func (st *stepper) labelOps(g *graph.CSR, labels []int, dense bool) {
	st.ops = slices.Grow(st.ops[:0], len(labels))
	for _, l := range labels {
		if dense {
			st.ops = append(st.ops, g.LabelOperand(l))
		} else {
			st.ops = append(st.ops, g.LabelCSR(l))
		}
	}
}

// base fills dst with the union of the labels' edge relations — the base
// of an alternation or wildcard — in one pass (bitset.FillUnionCSR) with
// worker 0's scratch, or, dst nil, measures it without building it
// (bitset.UnionCSRCount). It runs on the coordinator: a base is a copy at
// memory speed, the size of the graph and not of an intermediate, so it is
// never sharded.
func (st *stepper) base(g *graph.CSR, labels []int, dst *bitset.HybridRelation) (c bitset.Count) {
	st.labelOps(g, labels, false)
	if dst == nil {
		return bitset.UnionCSRCount(st.ops, st.scr(0), st.limit)
	}
	dst.FillUnionCSR(st.ops, st.scr(0))
	return c
}

// compose makes the next step the compose step cur ∘ op.
func (st *stepper) compose(cur *bitset.HybridRelation, op bitset.CSROperand) {
	st.cur, st.ops = cur, append(st.ops[:0], op)
}

// through makes the next step cur ∘ (⋃ labels), a step through a label
// set: the compose kernel again, over several operands.
func (st *stepper) through(g *graph.CSR, cur *bitset.HybridRelation, labels []int) {
	st.cur = cur
	st.labelOps(g, labels, true)
}

// first makes the next step a ∘ op with the rows of a read from the graph:
// a leaf's first step, whose left relation is never built.
func (st *stepper) first(a, op bitset.CSROperand) {
	st.left, st.ops = a, append(st.ops[:0], op)
}

// join makes the next step the relation×relation join cur ∘ right.
func (st *stepper) join(cur, right *bitset.HybridRelation) { st.cur, st.right = cur, right }

// size returns what the step's sharding weighs — the left side's non-empty
// rows and pairs — and the number of items its shards partition: positions
// of cur's active list, or vertices when the left side is a CSR.
func (st *stepper) size() (sources int, pairs int64, items int) {
	if st.cur == nil {
		return st.left.Sources, int64(len(st.left.Targets)), st.n
	}
	return st.cur.Sources(), st.cur.Pairs(), st.cur.Sources()
}

// buildShard runs the step's kernel over items [lo, hi) into dst.
func (st *stepper) buildShard(scr *bitset.ComposeScratch, lo, hi int, buf []int32) ([]int32, int64) {
	switch {
	case st.right != nil:
		return st.cur.JoinShardInto(st.dst, st.right, scr, lo, hi, buf)
	case st.cur == nil:
		return st.left.ComposeShardInto(st.dst, st.ops[0], scr, lo, hi, buf)
	default:
		return st.cur.ComposeShardInto(st.dst, st.ops, scr, lo, hi, buf)
	}
}

// countShard runs the step's count kernel over items [lo, hi).
func (st *stepper) countShard(scr *bitset.ComposeScratch, lo, hi int) bitset.Count {
	switch {
	case st.right != nil:
		return st.cur.JoinShardCount(st.right, scr, lo, hi)
	case st.cur == nil:
		return st.left.ComposeShardCount(st.ops[0], scr, st.limit, lo, hi)
	default:
		return st.cur.ComposeShardCount(st.ops, scr, lo, hi)
	}
}

// runShard is the scheduler task body: it runs the step's kernel over the
// shard's item range with the executing worker's scratch, parking the
// produced sources and pair count — or, for a counted step, the count — in
// the shard's own slots.
func (st *stepper) runShard(worker int, t shardTask) {
	faultinject.Fire("exec.shard")
	lo, hi := st.bounds[t.idx], st.bounds[t.idx+1]
	if st.dst == nil {
		st.counts[t.idx] = st.countShard(st.scr(worker), lo, hi)
	} else {
		st.srcs[t.idx], st.pairs[t.idx] = st.buildShard(st.scr(worker), lo, hi, st.srcs[t.idx])
	}
}

// run carries out the step compose, through, first or join described: built into
// dst, or — dst nil — counted, nothing emitted and nothing to merge. Steps
// above the granularity floor (enough left rows and enough pairs —
// shardGrain weighs both) are partitioned into shards and run in parallel,
// then merged deterministically, so the result — rows, active order, and
// pair count — is bit-identical to the sequential kernel. Small steps and
// 1-worker configurations run that kernel on the coordinator without
// touching the scheduler at all: parallelism is a performance decision per
// step, never a semantic one, and the decision is the same whether the step
// builds or counts.
func (st *stepper) run(dst *bitset.HybridRelation) (c bitset.Count, err error) {
	defer st.end()
	st.dst = dst
	sources, pairs, items := st.size()
	shards := shardGrain.Shards(sources, pairs, st.sch.Workers())
	switch {
	case shards > 1 && dst == nil:
		return st.countSharded(items, shards)
	case shards > 1:
		return c, st.runSharded(items, shards)
	case dst == nil:
		return st.countShard(st.scr(0), 0, items), nil
	case st.right != nil:
		st.cur.JoinInto(dst, st.right, st.scr(0))
	case st.cur == nil:
		st.left.ComposeInto(dst, st.ops[0], st.scr(0))
	default:
		st.cur.ComposeUnionInto(dst, st.ops, st.scr(0))
	}
	return c, nil
}

// runSharded partitions the step's items into shards, runs them on the
// scheduler, and merges the outcome deterministically: the coordinator
// adopts the per-shard source runs in ascending shard order — a memcpy of
// at most a few hundred kilobytes behind a multi-millisecond step. A shard
// body that panics (contained by the scheduler) or a cancellation surfaces
// here as the drain's error; the partial destination is left unmerged for
// the caller to discard.
func (st *stepper) runSharded(items, shards int) error {
	st.partition(items, shards)
	st.dst.Reset()
	for len(st.srcs) < shards {
		st.srcs = append(st.srcs, nil)
	}
	if len(st.pairs) < shards {
		st.pairs = make([]int64, shards)
	}
	if err := st.drain(shards); err != nil {
		return err
	}
	for i := 0; i < shards; i++ {
		st.dst.AdoptShard(st.srcs[i], st.pairs[i])
	}
	return nil
}

// countSharded is runSharded for a counted step: the same partition on
// the same scheduler, shard bodies running the count kernels, and no merge
// — nothing positional was built, so the per-shard counts add up in any
// order.
func (st *stepper) countSharded(items, shards int) (total bitset.Count, err error) {
	st.partition(items, shards)
	if len(st.counts) < shards {
		st.counts = make([]bitset.Count, shards)
	}
	if err := st.drain(shards); err != nil {
		return total, err
	}
	for _, c := range st.counts[:shards] {
		total.Add(c)
	}
	return total, nil
}

// partition splits the step's items evenly into the round's shards.
func (st *stepper) partition(items, shards int) {
	if cap(st.bounds) < shards+1 {
		st.bounds = make([]int, shards+1)
	}
	st.bounds = st.bounds[:shards+1]
	for i := 0; i <= shards; i++ {
		st.bounds[i] = i * items / shards
	}
}

// end drops the finished step's references.
func (st *stepper) end() { st.cur, st.right, st.dst = nil, nil, nil }

// drain runs one scheduler round of one task per shard. Shard bodies
// never Spawn, so the static drain's goroutine count cap
// (min(workers, shards)) loses nothing.
func (st *stepper) drain(shards int) error {
	workers := st.sch.Workers()
	for i := 0; i < shards; i++ {
		st.sch.Spawn(i%workers, shardTask{idx: i})
	}
	return st.sch.DrainStatic()
}
