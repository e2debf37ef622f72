package exec

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Shard sizing for parallel join steps. A shard is a contiguous run of the
// step's left rows (bitset.Rows); row composes are independent, so
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
// the shard of the bounds table it runs. Tasks own disjoint row ranges, so
// bodies write disjoint state — the determinism contract of internal/sched.
type shardTask struct{ idx int }

// stepper drives the join steps of one execution core on the shared
// work-stealing scheduler (internal/sched). One stepper serves all k−1
// steps of a plan: per-worker scratches, per-shard buffers, and the
// scheduler itself persist across steps, so the steady state allocates
// nothing beyond first use.
type stepper struct {
	sch     *sched.Scheduler[shardTask]
	n       int
	limit   int                      // the promotion limit of the relations the steps build
	scratch []*bitset.ComposeScratch // lazily built, indexed by worker
	cancel  *bitset.CancelFlag       // wired into every scratch; nil when unchecked

	// The current step's operands, set by compose, through or join and
	// dropped when run returns. The left side is rows — a relation's, or a
	// label's read in place from the graph (a leaf's first step). The right
	// side is the relation right, or — right nil — the union of the label
	// operands ops, a list in storage the stepper keeps across steps, so no
	// step puts one on the heap.
	left  bitset.Rows
	right *bitset.HybridRelation
	ops   []bitset.CSROperand
	one   [1]bitset.CSROperand // ops' first storage: a lone operand allocates nothing

	// Per-round state of a step, written by the coordinator between Drain
	// rounds and read by shard bodies during one. A nil dst makes the step
	// a counted one: nothing is emitted, and only the counts are merged.
	dst    *bitset.HybridRelation
	bounds []int          // shard i covers positions [bounds[i], bounds[i+1])
	srcs   [][]int32      // per-shard produced sources, reused across steps
	counts []bitset.Count // per-shard outcomes
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
// one-shard steps through worker 0) ever touches slot w, so no locking is
// needed.
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

// labelOps makes a label set the stepper's operand list: the labels' CSR
// arrays, which a base reads as rows and a step scatters from.
func (st *stepper) labelOps(g *graph.CSR, labels []int) {
	st.ops = slices.Grow(st.ops[:0], len(labels))
	for _, l := range labels {
		st.ops = append(st.ops, g.LabelOperand(l))
	}
}

// base fills dst with the union of the labels' edge relations — the base
// of an alternation or wildcard — in one pass (bitset.UnionCSR) with
// worker 0's scratch, or, dst nil, measures it without building it. It
// runs on the coordinator: a base is a copy at memory speed, the size of
// the graph and not of an intermediate, so it is never sharded.
func (st *stepper) base(g *graph.CSR, labels []int, dst *bitset.HybridRelation) bitset.Count {
	st.labelOps(g, labels)
	return bitset.UnionCSR(dst, st.ops, st.scr(0), st.limit)
}

// compose makes the next step the compose step left ∘ op.
func (st *stepper) compose(left bitset.Rows, op bitset.CSROperand) {
	st.left, st.ops = left, append(st.ops[:0], op)
}

// through makes the next step left ∘ (⋃ labels), a step through a label
// set: the compose kernel again, over several operands.
func (st *stepper) through(g *graph.CSR, left bitset.Rows, labels []int) {
	st.left = left
	st.labelOps(g, labels)
}

// join makes the next step the relation×relation join left ∘ right.
func (st *stepper) join(left bitset.Rows, right *bitset.HybridRelation) {
	st.left, st.right = left, right
}

// shard runs the step's kernel over shard i's positions with the given
// scratch, parking the produced sources — none for a counted step — and
// the count in the shard's own slots.
func (st *stepper) shard(scr *bitset.ComposeScratch, i int) {
	lo, hi := st.bounds[i], st.bounds[i+1]
	if st.right != nil {
		st.srcs[i], st.counts[i] = st.left.JoinShard(st.dst, st.right, scr, st.limit, lo, hi, st.srcs[i])
	} else {
		st.srcs[i], st.counts[i] = st.left.ComposeShard(st.dst, st.ops, scr, st.limit, lo, hi, st.srcs[i])
	}
}

// runShard is the scheduler task body: the task's shard on the executing
// worker's scratch.
func (st *stepper) runShard(worker int, t shardTask) {
	faultinject.Fire("exec.shard")
	st.shard(st.scr(worker), t.idx)
}

// run carries out the step compose, through or join described: built into
// dst, or — dst nil — counted, nothing emitted. The left rows are
// partitioned into as many shards as the granularity floor allows (enough
// rows and enough pairs — shardGrain weighs both): one shard — a small step
// or a 1-worker configuration — runs on the coordinator without touching
// the scheduler at all, more run on it in parallel. Either way the shards
// are adopted in ascending order, so the result — rows, active order and
// pair count — is the same at every shard count: parallelism is a
// performance decision per step, never a semantic one, and the same whether
// the step builds or counts. A shard body that panics (contained by the
// scheduler) surfaces as the drain's error, the partial destination left
// unmerged for the caller to discard (core.finish clears it).
func (st *stepper) run(dst *bitset.HybridRelation) (total bitset.Count, err error) {
	defer st.end()
	st.dst = dst
	shards := shardGrain.Shards(st.left.Sources(), st.left.Pairs(), st.sch.Workers())
	st.partition(st.left.Len(), shards)
	if dst != nil {
		dst.Reset()
	}
	if shards == 1 {
		st.shard(st.scr(0), 0)
	} else if err := st.drain(shards); err != nil {
		return total, err
	}
	for i, c := range st.counts[:shards] {
		if dst != nil {
			dst.AdoptShard(st.srcs[i], c)
		}
		total.Add(c)
	}
	return total, nil
}

// partition splits the step's positions evenly into the round's shards,
// growing the per-shard slots to hold them.
func (st *stepper) partition(items, shards int) {
	st.bounds = st.bounds[:0]
	for i := 0; i <= shards; i++ {
		st.bounds = append(st.bounds, i*items/shards)
	}
	for len(st.srcs) < shards {
		st.srcs = append(st.srcs, nil)
		st.counts = append(st.counts, bitset.Count{})
	}
}

// end drops the finished step's references.
func (st *stepper) end() { st.left, st.right, st.dst = bitset.Rows{}, nil, nil }

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
