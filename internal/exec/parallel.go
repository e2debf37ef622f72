package exec

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/sched"
)

// grain is the executor's shard-count policy for a join step, by the
// step's active left rows and its input pairs. A shard is a contiguous
// run of the left rows (bitset.Rows). A spawn/steal handoff has a fixed
// cost, so a round whose whole work is comparable to a few handoffs loses
// time to sharding (and feeds the steal path pure contention). Both
// floors must clear by a factor of two before a step is split at all, so
// it is only split when at least two shards' worth of work exists on both
// axes. One policy value serves compose and join steps alike, so their
// floors cannot drift apart.
type grain struct {
	// rows is the fewest left rows worth a shard of their own: below it
	// one row range composes in roughly the time a handoff costs.
	rows int
	// pairs is the least input volume worth a shard. Row count alone
	// cannot see a short segment of many nearly-empty rows, which
	// composes in a few microseconds total.
	pairs int64
}

// shardsPerWorker oversubscribes the shard count so stolen shards can
// rebalance a skewed row-weight distribution.
const shardsPerWorker = 4

// shardGrain is the floors every step is sharded by — a package var so
// tests can lower them and drive the merge path on small graphs.
var shardGrain = grain{rows: 32, pairs: 2048}

// shards returns the shard count of a step of the given rows and pairs
// on the given worker count: 1 — run on the coordinator, no scheduler —
// when the step is under either floor twice over or workers ≤ 1,
// otherwise workers×shardsPerWorker capped by rows/g.rows and
// pairs/g.pairs.
func (g grain) shards(rows int, pairs int64, workers int) int {
	if workers <= 1 || rows < 2*g.rows || pairs < 2*g.pairs {
		return 1
	}
	return min(workers*shardsPerWorker, rows/g.rows, int(pairs/g.pairs))
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
	// label's read in place from the graph (a leaf's first step, and its
	// leftward steps). The right side is the relation right, or — right
	// nil — the union of the label operands ops, a list in storage the
	// stepper keeps across steps, so no step puts one on the heap.
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
// the given promotion limit, with sched.WorkerCount(workers) workers. No
// goroutines or scratches are built until the first sharded step, and a
// round starts no more goroutines than it has shards.
func newStepper(n, limit, workers int) *stepper {
	st := &stepper{n: n, limit: limit}
	st.ops = st.one[:0]
	st.sch = sched.New(workers, st.runShard)
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
// partitioned into as many shards as the floors allow (enough rows and
// enough pairs — shardGrain weighs both, a join's pairs being its larger
// side's, since each left row reads right's rows: a leftward leaf's join
// has a label's rows on the left and the segment on the right): one shard
// — a small step or a 1-worker configuration — runs on the coordinator
// without touching the scheduler at all, more run on it in parallel.
// Either way the shards are adopted in ascending order, so the result —
// rows, active order and pair count — is the same at every shard count:
// parallelism is a performance decision per step, never a semantic one,
// and the same whether the step builds or counts. A shard body that
// panics (contained by the scheduler) surfaces as the drain's error, the
// partial destination left unmerged for the caller to discard
// (core.finish clears it).
func (st *stepper) run(dst *bitset.HybridRelation) (total bitset.Count, err error) {
	defer st.end()
	st.dst = dst
	pairs := st.left.Pairs()
	if st.right != nil {
		pairs = max(pairs, st.right.Pairs())
	}
	shards := shardGrain.shards(st.left.Len(), pairs, st.sch.Workers())
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
// never Spawn, so the round starts min(workers, shards) goroutines.
func (st *stepper) drain(shards int) error {
	for i := 0; i < shards; i++ {
		st.sch.Spawn(i, shardTask{idx: i})
	}
	return st.sch.Drain()
}
