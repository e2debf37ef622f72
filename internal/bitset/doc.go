// Package bitset is the relation-representation layer of the
// reproduction (graph → bitset → paths → exec → pathsel): vertex sets and
// binary vertex relations, represented so that relational composition —
// the innermost operation of both the selectivity census and query
// execution — runs as tight array kernels.
//
// Three types carry it:
//
//   - Set is the dense, fixed-capacity bit set: a CSR operand's dense
//     successor rows and the union target of the word-parallel kernels.
//     The dense relation built from Sets — every row a bit array,
//     composition as word-parallel unions — is the reference the
//     equivalence tests pin this package against; it lives in
//     internal/oracle, which only tests import.
//
//   - HybridRelation is the relation: each source row adaptively
//     switches between a sorted sparse id list and a dense bit array at a
//     density threshold, rows and destination relations are pooled
//     (ComposeInto, ReverseInto reuse capacity), and the compose kernels
//     are specialized per representation — sparse rows scatter through a
//     label's CSR adjacency (CSROperand), dense rows union precomputed
//     successor bit sets word-parallel, under one label or through the
//     union of several (ComposeUnionInto), from the rows of a relation or
//     straight from a label's CSR (CSROperand.ComposeInto, composecsr.go).
//     Executor operations (Reverse, UnionWith, Equal) live in
//     hybridops.go. Every row kernel is an accumulate step followed by an
//     emit step; the count forms (ComposeCount, JoinCount and their shard
//     variants, count.go; UnionCSRCount) run the accumulate step alone,
//     for callers that read only the size of a relation they would drop.
//
//   - Packed is a HybridRelation's immutable snapshot (Pack), the form
//     the relation cache stores: the same rows in the same forms, flat,
//     with nothing sized by the universe, read only by copying out
//     (CopyInto, ReverseInto — the HybridRelation methods' own kernels).
//
// Knobs: the density threshold, set per relation at construction
// (NewHybrid, HybridFromCSR) as a fraction of the vertex universe |V|.
// A row promotes to dense when its population exceeds threshold × |V|.
// ≤ 0 selects DefaultDensityThreshold = 1/32 — the memory crossover,
// since a sorted int32 id costs 32 bits against 1 bit per universe slot —
// and ≥ 1 pins every row sparse. The threshold changes performance only,
// never results.
package bitset
