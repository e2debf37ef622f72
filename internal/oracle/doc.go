// Package oracle is the dense reference stack the engine is pinned
// bit-identical to, and nothing else: a dense bit set (Set), a dense
// bit-row Relation with composition over successor sets, a label's edge
// relation, the sequential trie-DFS census and the forward/backward
// dense executor.
// Each is the simplest thing that computes the exact answer — one
// allocation per step, no pooling, no sharding, no cache — so a
// disagreement with it is a bug in the production engine.
//
// It is imported only from _test.go files (the layer rule "oracle stays
// outside the binary" in the module root's rules_test.go), so none of it
// is compiled into a binary. It may import bitset (for HybridRelation),
// graph and paths, never exec: the in-package tests of
// internal/exec consult it. A kernel PR that keeps
// its parent implementation as a reference parks it here.
package oracle
