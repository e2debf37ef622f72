// Package exec evaluates path queries with explicit join plans — the
// query-engine layer of the reproduction (graph → bitset → paths → exec →
// pathsel): a graph database's optimizer uses cardinality estimates to
// choose among execution plans, and estimate quality shows up as plan
// quality.
//
// A length-k path query has k zig-zag plans, one per start position: begin
// with the single-label relation at the start, extend rightward to the end
// of the path, then prepend the remaining labels leftward. Start 0 is the
// classic forward (left-to-right) join, start k−1 the backward
// (right-to-left) join, and interior starts let the join begin at the most
// selective label. All plans produce the same answer; their costs differ
// by the sizes of the intermediate results, which are exactly the
// selectivities of the plan's intermediate segments. A Planner costs every
// plan from a selectivity estimator and picks the cheapest;
// ExecutePlanChecked carries the plan out and reports the actual
// intermediate sizes, so planning quality is measurable end to end.
//
// Beyond the linear space, a PlanTree is a bushy plan: leaves build query
// segments with zig-zag plans, and join nodes build their two child
// segments independently — concurrently when the worker budget allows —
// then join the finished relations with the sharded relation×relation
// kernel (bitset.JoinInto / JoinShardInto). Planner.ChooseTree searches
// the tree space with a dynamic program over segment splits (bounded by
// MaxTreeLength) and falls back to the best zig-zag plan whenever linear
// growth is estimated cheaper; ExecuteTreeChecked carries a tree out. A
// regular path query compiles to an RPQDag, which Planner.PlanDag
// decomposes into zig-zag/bushy run blocks and alternation/repetition
// elements and ExecuteDagChecked folds left to right. Every search reads
// one SegTable per path (Planner.Segments): each proper segment is asked
// of the estimator once, and a retained table replans against a changed
// cache state with no estimator calls (SegTable.ChooseTreeWithCost,
// Planner.ReplanDag).
//
// The three entry points are plan-shape adapters over one execution
// core (core.go): one step protocol — fire the exec.step fault site,
// check cancellation, adopt the segment from the relation cache or
// compute and publish it, price it against the byte budget — and one
// finish — contain panics as typed errors, release every pooled
// relation on abort, total the stats. Plan shapes are node methods that
// nest, and every surviving execution is bit-identical to ExecuteDense
// (or, for an RPQ, to the union of its expansions). The answer to a query
// is a count, so unless Options.KeepResult asks for the relation the root
// node counts its final step instead of building it whenever nothing
// would publish it — same Stats, same budget boundary, no relation.
//
// Execution runs on the hybrid sparse/dense relation substrate
// (bitset.HybridRelation): two pooled relations double-buffer through the
// specialized sparse×CSR / dense×CSR compose kernels, rightward steps use
// successor operands, leftward steps use predecessor operands on the
// reversed relation, and every row adapts its representation per step.
// Each compose step is parallelized over the shared work-stealing
// scheduler (internal/sched): the input relation's source rows are
// partitioned into shards, composed concurrently into a shared
// destination (rows are disjoint across shards), and merged
// deterministically in shard order, so parallel output is bit-identical
// to sequential execution. The retired dense-only executor survives as
// ExecuteDense, the reference that equivalence tests
// (equivalence_test.go, parallel_test.go) pin the hybrid engine against.
//
// Knobs: Options.DensityThreshold (fraction of |V| in (0,1]; ≤ 0 selects
// the default 1/32, ≥ 1 keeps every row sparse) tunes the hybrid rows'
// sparse→dense promotion point; Options.Workers (≤ 0 selects GOMAXPROCS,
// 1 runs sequential) sets the join-step parallelism. Both are purely
// performance knobs — results are bit-identical at any setting.
package exec
