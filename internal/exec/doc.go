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
// selectivities of the plan's intermediate segments.
//
// There is one query form, one plan form, one way to plan and one way to
// run. A query is an RPQDag — a sequence of elements, each an alternation
// of labels under a bounded repetition; a concrete path is the DAG of plain
// labels (PathDag). A plan is a DagPlan: the query's elements and one
// PlanTree over their intervals [Lo, Hi), whose nodes are zig-zag leaves
// over runs of plain labels, element leaves (a complex element built from
// its alternation's base by a chain of steps through its labels), join
// nodes that build their two children in turn and join them with the
// sharded relation×relation kernel (bitset.Rows.JoinShard), and step nodes
// that compose their child through the labels of one element one step from
// the graph — a lone label, an alternation, a wildcard, an optional label —
// without building it (bitset.Rows.ComposeShard over several operands).
// Where either side of a node may match the empty path, its ε and skip
// terms are terms of the node's step (bitset.HybridRelation.Extend), never
// unions after it. Planner.Plan decomposes a query into blocks — maximal
// plain-label runs, each planned as a plan tree, and single complex
// elements — and folds them left to right into the left-deep chain of
// join and step nodes; a concrete path is the one-run case, and a zig-zag
// plan its leaf. The planner costs every candidate from a selectivity
// estimator — each proper segment of a run asked once, into one table
// the search reads — and picks the cheapest tree of one dynamic program
// over segment splits, which keeps the zig-zag winner whenever linear
// growth is estimated cheaper. There is one plan space: the zig-zag costs
// are the program's running sums, and every leaf of every segment is a
// candidate. A plan is decided once, as Plan builds it, against the cache
// as it is then; nothing decides it again. Plan never asks for the whole
// query — a caller may plan one label past its estimator's reach — so its
// size is a separate call, Planner.Estimate: one lookup of a concrete
// path, the sum over at most MaxExpansions expansions, the plan's
// independence-model ResultEst past that. NewPlanner is the planner a
// caller builds once over its estimator and cache; every plan it makes
// prices a segment cached at planning time as free to build. A plan
// carries its query (PathPlan hand-builds one; a forced start is a leaf),
// so Run(g, plan, opt) takes nothing else, and reports the actual
// intermediate sizes: planning quality is measurable end to end.
//
// Run is one execution core (core.go): one walk over the plan tree
// (core.node, which runs every join and step node and hands each leaf to
// its builder), one step protocol, one call — take the step's destination,
// fire the exec.step fault site, check cancellation, adopt the interval
// from the relation cache or compute and publish it, price it against the
// byte budget — and one finish — contain panics as typed errors, release
// every pooled relation on abort, total the stats. What a step adopts or
// publishes is named by the key of its element interval (relcache.AppendElem
// per element): a leaf's label segment, and equally an RPQ's element or the
// prefix a fold node completes. A node probes its interval's key before
// building anything below it, so a walk from the root probes an RPQ's
// prefixes longest first, resumes after the longest one cached, and a
// repeated query of any shape is one adoption. Every
// surviving execution is bit-identical to the dense executor of
// internal/oracle (or, for an RPQ, to the union of its
// expansions). The answer to a query is a count, so unless
// Options.KeepResult asks for the relation the root node counts its final
// step instead of building it whenever nothing would publish it — same
// Stats, same budget boundary, no relation.
//
// Execution runs on the hybrid sparse/dense relation substrate
// (bitset.HybridRelation): every step writes a pooled relation it takes
// itself, through the scatter compose kernel (every row, sparse or dense,
// pushes its targets' CSR rows), and the relation it read goes back to
// the pool once it has run, so a leaf holds at most two at a time; the
// first step reads the start label's rows from the graph's CSR rather
// than from a copy (bitset.CSROperand.Rows). A
// rightward step composes the segment with the next label's CSR, a
// leftward one joins the previous label's CSR rows with the segment, so
// every relation is forward, and every row adapts its representation per
// step.
// Each compose step is parallelized over the shared work-stealing
// scheduler (internal/sched): the input relation's source rows are
// partitioned into shards, composed concurrently into a shared
// destination (rows are disjoint across shards), and merged
// deterministically in shard order. That is the only parallelism: an
// execution is one strand of steps, so parallel output, intermediates and
// cache traffic are bit-identical to sequential execution. The retired
// dense-only executor survives in internal/oracle — a test-only package,
// in no binary — as the reference the equivalence tests pin the engine
// against.
//
// Knobs: Options.DensityThreshold (fraction of |V| in (0,1]; ≤ 0 selects
// the default 1/32, ≥ 1 keeps every row sparse) tunes the hybrid rows'
// sparse→dense promotion point; Options.Workers (≤ 0 selects GOMAXPROCS,
// 1 runs sequential) sets the join-step parallelism. Both are purely
// performance knobs — results are bit-identical at any setting, and so is
// every Stats field but Sched.
package exec
