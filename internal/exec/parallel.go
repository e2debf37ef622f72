package exec

import (
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
	scratch []*bitset.ComposeScratch // lazily built, indexed by worker
	cancel  *bitset.CancelFlag       // wired into every scratch; nil when unchecked

	// Per-step state, written by the coordinator between Drain rounds and
	// read by shard bodies during one. Exactly one of op / right is the
	// step's right-hand operand: compose steps set op (relation×CSR),
	// bushy join steps set right (relation×relation). A nil dst makes the
	// step a counted one: shard bodies run the count kernels and park a
	// bitset.Count instead of sources.
	cur, dst *bitset.HybridRelation
	op       bitset.CSROperand
	right    *bitset.HybridRelation
	bounds   []int          // shard i covers active positions [bounds[i], bounds[i+1])
	srcs     [][]int32      // per-shard produced sources, reused across steps
	pairs    []int64        // per-shard produced pair counts
	counts   []bitset.Count // per-shard outcomes of a counted step
}

// newStepper returns a stepper for an n-vertex universe with
// sched.WorkerCount(workers) workers, clamped to the most shards any step
// over this universe can produce (n/minShardRows) — workers beyond that
// could never hold a shard and would only idle, park, and add steal
// scans. No goroutines or scratches are built until the first sharded
// step.
func newStepper(n, workers int) *stepper {
	st := &stepper{n: n}
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

// runShard is the scheduler task body: it composes (or joins, when the
// step's right-hand operand is a relation) the shard's row range into the
// shared destination with the executing worker's scratch, parking the
// produced sources and pair count in the shard's own slots.
func (st *stepper) runShard(worker int, t shardTask) {
	faultinject.Fire("exec.shard")
	lo, hi := st.bounds[t.idx], st.bounds[t.idx+1]
	switch {
	case st.dst == nil && st.right != nil:
		st.counts[t.idx] = st.cur.JoinShardCount(st.right, st.scr(worker), lo, hi)
	case st.dst == nil:
		st.counts[t.idx] = st.cur.ComposeShardCount(st.op, st.scr(worker), lo, hi)
	case st.right != nil:
		st.srcs[t.idx], st.pairs[t.idx] = st.cur.JoinShardInto(
			st.dst, st.right, st.scr(worker), lo, hi, st.srcs[t.idx])
	default:
		st.srcs[t.idx], st.pairs[t.idx] = st.cur.ComposeShardInto(
			st.dst, st.op, st.scr(worker), lo, hi, st.srcs[t.idx])
	}
}

// base fills dst with the union of the labels' edge relations — the base
// of an alternation or wildcard — in one pass (bitset.FillUnionCSR) with
// worker 0's scratch. It runs on the coordinator: a base is a copy at
// memory speed, the size of the graph and not of an intermediate, so it is
// never sharded.
func (st *stepper) base(g *graph.CSR, labels []int, dst *bitset.HybridRelation) {
	// A constant capacity keeps the operand list on the stack: room for a
	// wildcard over any of the paper's datasets (≤ 8 labels); a larger
	// label set spills to the heap.
	ops := make([]bitset.CSROperand, 0, 8)
	for _, l := range labels {
		ops = append(ops, g.LabelCSR(l)) // a base reads no dense successor sets
	}
	dst.FillUnionCSR(ops, st.scr(0))
}

// compose runs one join step cur ∘ op → dst. Steps above the granularity
// floor (enough active sources and enough pairs — shardGrain weighs both)
// are partitioned into shards and composed in parallel, then merged
// deterministically, so the result — rows, active order, and pair count —
// is bit-identical to sequential ComposeInto. Small steps and 1-worker
// configurations fall through to the sequential kernel without touching
// the scheduler at all: parallelism is a performance decision per step,
// never a semantic one.
func (st *stepper) compose(cur, dst *bitset.HybridRelation, op bitset.CSROperand) error {
	shards := shardGrain.Shards(cur.Sources(), cur.Pairs(), st.sch.Workers())
	if shards <= 1 {
		cur.ComposeInto(dst, op, st.scr(0))
		return nil
	}
	st.op, st.right = op, nil
	return st.runSharded(cur, dst, shards)
}

// composeCount is compose for a step whose output is only counted
// (bitset.ComposeCount): the same sharding decision and the same shard
// bodies' accumulate work, but nothing is emitted, so there is no
// destination and no merge — per-shard counts just add up.
func (st *stepper) composeCount(cur *bitset.HybridRelation, op bitset.CSROperand) (bitset.Count, error) {
	shards := shardGrain.Shards(cur.Sources(), cur.Pairs(), st.sch.Workers())
	if shards <= 1 {
		return cur.ComposeCount(op, st.scr(0)), nil
	}
	st.op, st.right = op, nil
	return st.countSharded(cur, shards)
}

// join runs one bushy join step cur ∘ right → dst through the same
// sharding machinery as compose, with the relation×relation kernel
// (bitset.JoinShardInto) as the task body. The merge discipline is
// identical, so the result is bit-identical to sequential JoinInto.
func (st *stepper) join(cur, dst, right *bitset.HybridRelation) error {
	shards := shardGrain.Shards(cur.Sources(), cur.Pairs(), st.sch.Workers())
	if shards <= 1 {
		cur.JoinInto(dst, right, st.scr(0))
		return nil
	}
	st.right = right
	return st.runSharded(cur, dst, shards)
}

// joinCount is join for a step whose output is only counted — to join
// what composeCount is to compose.
func (st *stepper) joinCount(cur, right *bitset.HybridRelation) (bitset.Count, error) {
	shards := shardGrain.Shards(cur.Sources(), cur.Pairs(), st.sch.Workers())
	if shards <= 1 {
		return cur.JoinCount(right, st.scr(0)), nil
	}
	st.right = right
	return st.countSharded(cur, shards)
}

// runSharded partitions cur's active sources into shards, runs them on
// the scheduler, and merges the outcome deterministically: the coordinator
// adopts the per-shard source runs in ascending shard order — a memcpy of
// at most a few hundred kilobytes behind a multi-millisecond step. The
// caller has set the step's right-hand operand (op or right). A shard body
// that panics (contained by the scheduler) or a cancellation surfaces here
// as the drain's error; the partial destination is left unmerged for the
// caller to discard.
func (st *stepper) runSharded(cur, dst *bitset.HybridRelation, shards int) error {
	st.begin(cur, dst, shards)
	defer st.end()
	dst.Reset()
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
		dst.AdoptShard(st.srcs[i], st.pairs[i])
	}
	return nil
}

// countSharded is runSharded for a counted step: the same partition on
// the same scheduler, shard bodies running the count kernels (a nil dst
// selects them), and no merge — nothing positional was built, so the
// per-shard counts add up in any order.
func (st *stepper) countSharded(cur *bitset.HybridRelation, shards int) (total bitset.Count, err error) {
	st.begin(cur, nil, shards)
	defer st.end()
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

// begin sets a sharded step's per-round state: its input and destination
// and the partition of the input's active sources into shards.
func (st *stepper) begin(cur, dst *bitset.HybridRelation, shards int) {
	st.cur, st.dst = cur, dst
	if cap(st.bounds) < shards+1 {
		st.bounds = make([]int, shards+1)
	}
	st.bounds = st.bounds[:shards+1]
	nact := cur.Sources()
	for i := 0; i <= shards; i++ {
		st.bounds[i] = i * nact / shards
	}
}

// end drops the finished step's references.
func (st *stepper) end() { st.cur, st.dst, st.right = nil, nil, nil }

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
