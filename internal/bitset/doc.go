// Package bitset is the relation-representation layer of the
// reproduction (graph → bitset → paths → exec → pathsel): vertex sets and
// binary vertex relations, represented so that relational composition —
// the innermost operation of both the selectivity census and query
// execution — runs as tight array kernels.
//
// The relation, its step kernels and its snapshot carry it. The dense
// reference the equivalence tests pin them against — a dense bit set,
// every row a bit array, composition as word-parallel unions of
// successor sets — lives in internal/oracle, which only tests import.
//
//   - HybridRelation is the relation: each source row adaptively
//     switches between a sorted sparse id list and a dense bit array at a
//     density threshold, and rows and destination relations are pooled
//     (ComposeInto reuses capacity). Equal, UnionWith — the set union
//     paths.UnionSelectivity accumulates with, and the fused steps'
//     reference in the tests — and ReverseInto, which only the benchmark
//     module calls, live in hybridops.go.
//
//   - A step is one of three kernels (step.go) over a left side read by
//     position, Rows — a relation's active rows (h.Rows()), the same with
//     the identity terms of an element that may match the empty path
//     (h.Extend(eps, skip): R ∪ I on the left, X ∪ I on the right, never
//     I∘I), or a label's non-empty CSR rows read in place (op.Rows(),
//     which iterates CSROperand.Active as a relation's rows iterate its
//     active list):
//     Rows.ComposeShard through one label or the union of several — every
//     row, sparse or dense, pushes: each of its targets scatters its CSR
//     row (CSROperand) into the summarized accumulator, so a step costs
//     its targets' degrees and never |V| per target — Rows.JoinShard with
//     a relation, and UnionCSR, a label set's base. Every kernel
//     accumulates a row once, its identity terms included, and sinks it
//     into a destination or a Count: given no destination it measures the
//     relation a caller would drop (count.go), exactly as the built one
//     would be priced. ComposeInto and JoinInto are the one-shard forms.
//
//   - Packed is a HybridRelation's immutable snapshot (Pack), the form
//     the relation cache stores: the same rows in the same forms, flat,
//     with nothing sized by the universe, read only by copying out
//     (CopyInto — the HybridRelation method's own kernel).
//
// Knobs: the density threshold, set per relation at construction
// (NewHybrid, HybridFromCSR) as a fraction of the vertex universe |V|.
// A row promotes to dense when its population exceeds threshold × |V|.
// ≤ 0 selects DefaultDensityThreshold = 1/32 — the memory crossover,
// since a sorted int32 id costs 32 bits against 1 bit per universe slot —
// and ≥ 1 pins every row sparse. The threshold changes performance only,
// never results; it picks a row's representation, not a kernel.
package bitset
