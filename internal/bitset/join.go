package bitset

import (
	"fmt"
	"math/bits"
)

// This file holds the relation×relation join kernel: composing two
// HybridRelations with each other, as opposed to composing a relation with
// a CSR label operand (hybrid.go). The census and the zig-zag executor
// only ever extend a relation by one label — a relation×CSR compose — but
// bushy join plans (internal/exec.Run) build two path segments
// independently and then join segment×segment, which is exactly this
// kernel. Like ComposeInto it is representation-adaptive: every
// left-row × right-row combination (sparse×sparse, sparse×dense,
// dense×sparse, dense×dense) dispatches to a specialized accumulation
// path, and JoinShardInto is the partitioned form that lets the final
// join of a bushy plan shard across workers bit-identically.

// JoinInto computes the relational composition h ∘ r into dst:
//
//	(s, u) ∈ dst  ⇔  ∃t: (s, t) ∈ h ∧ (t, u) ∈ r
//
// where both operands are hybrid relations. dst is reset first and its
// rows are reused in place, so steady-state joins allocate nothing beyond
// the scratch's first use. Output rows whose right-side inputs are all
// sparse accumulate through the touched-word scatter (the sparse×CSR
// kernel's accumulator); a single dense right-side row switches the output
// row to a full-width word accumulator, since dense unions touch words
// wholesale. Returns the distinct-pair count of dst. dst must be distinct
// from both operands and share their universe; h and r may alias (a
// self-join is legal).
func (h *HybridRelation) JoinInto(dst, r *HybridRelation, scr *ComposeScratch) int64 {
	// The whole is the [0, n) shard, exactly as in ComposeInto.
	dst.Reset()
	dst.active, dst.pairs = h.JoinShardInto(dst, r, scr, 0, len(h.active), dst.active)
	return dst.pairs
}

// checkJoin validates the shared preconditions of JoinInto and
// JoinShardInto.
func (h *HybridRelation) checkJoin(dst, r *HybridRelation) {
	if r.n != h.n {
		panic(fmt.Sprintf("bitset: join operand universe %d != relation universe %d", r.n, h.n))
	}
	if dst == h || dst == r {
		panic("bitset: join aliasing dst == operand")
	}
	if dst.n != h.n {
		panic(fmt.Sprintf("bitset: join destination universe %d != relation universe %d", dst.n, h.n))
	}
}

// JoinShardInto joins one shard of h ∘ r — the rows of h's active-source
// slice in index positions [lo, hi) — into dst's row array. It is the
// partitioned form of JoinInto, with the same contract as
// ComposeShardInto: shards with disjoint ranges may run concurrently
// against the same dst (each with its own scratch) because every output
// row is written by exactly one shard; dst must have been Reset by the
// coordinator, which merges the returned per-shard sources and pair
// counts with AdoptShard in ascending shard order to stay bit-identical
// to sequential JoinInto.
func (h *HybridRelation) JoinShardInto(dst, r *HybridRelation, scr *ComposeScratch, lo, hi int, buf []int32) ([]int32, int64) {
	h.checkJoin(dst, r)
	h.checkShard(lo, hi)
	buf = buf[:0]
	var pairs int64
	for _, s := range h.active[lo:hi] {
		count := h.joinRow(dst, r, scr, s)
		if count > 0 {
			buf = append(buf, s)
			pairs += int64(count)
		}
		if scr.cancelled(count) {
			return buf, pairs // partial shard; the coordinator discards it
		}
	}
	return buf, pairs
}

// Join is the allocating convenience form of JoinInto, for callers outside
// the pooled execution loop.
func (h *HybridRelation) Join(r *HybridRelation, density float64) *HybridRelation {
	dst := NewHybrid(h.n, density)
	h.JoinInto(dst, r, NewComposeScratch(h.n))
	return dst
}

// joinRow computes row s of h ∘ r into dst.rows[s] — accumulate, then
// emit from whichever accumulator holds the row — and returns the row's
// target count (0 leaves dst.rows[s] in its Reset state). Like composeRow
// it touches nothing of dst but the one row, so calls on distinct rows may
// run concurrently against a shared dst as long as each caller owns its
// scratch.
func (h *HybridRelation) joinRow(dst, r *HybridRelation, scr *ComposeScratch, s int32) int {
	count, wide := h.joinAccumulate(r, scr, s)
	if wide {
		emitWordsRow(dst, s, count, scr.wide)
		return count
	}
	if count > 0 {
		scr.emitRow(dst, s, count)
	}
	scr.reset()
	return count
}

// joinAccumulate is the accumulate half of one join row: it gathers the
// targets of row s of h ∘ r and returns their count, with wide reporting
// which accumulator holds them — the full-width one (scr.wide, count ≥ 1,
// overwritten by the next wide row) or the touched-word scatter
// accumulator, which the caller must reset once it has read the row.
func (h *HybridRelation) joinAccumulate(r *HybridRelation, scr *ComposeScratch, s int32) (count int, wide bool) {
	row := &h.rows[s]
	ts := row.ids
	if row.dense {
		// Expand the dense left row into the reusable id buffer so the
		// accumulation loops below handle one shape.
		scr.tbuf = scr.tbuf[:0]
		for wi, w := range row.words {
			base := int32(wi * wordBits)
			for w != 0 {
				scr.tbuf = append(scr.tbuf, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		ts = scr.tbuf
	}
	// First pass: does any intermediate vertex contribute a dense right
	// row? Dense contributions union whole words, which the touched-word
	// scatter accumulator cannot track, so they divert the output row to
	// the full-width path.
	any, anyDense := false, false
	for _, t := range ts {
		rr := &r.rows[t]
		if rr.count == 0 {
			continue
		}
		any = true
		if rr.dense {
			anyDense = true
			break
		}
	}
	if !any {
		return 0, false
	}
	if !anyDense {
		return scr.scatterSparseRows(ts, r), false
	}
	// Full-width accumulation: clear once, union every contributing right
	// row (dense rows word-parallel, sparse rows bit by bit), then count.
	// A dense right row already populates ≥ r.sparseMax targets, so the
	// O(|V|/64) clear and popcount are amortized by the row's size.
	acc := scr.wideWords()
	clear(acc)
	for _, t := range ts {
		rr := &r.rows[t]
		if rr.count == 0 {
			continue
		}
		if rr.dense {
			for i, w := range rr.words {
				acc[i] |= w
			}
		} else {
			for _, u := range rr.ids {
				acc[u>>6] |= 1 << (uint(u) & 63)
			}
		}
	}
	for _, w := range acc {
		count += bits.OnesCount64(w)
	}
	return count, true
}

// scatterSparseRows is the sparse×sparse join kernel: for each
// intermediate vertex t in ts, scatter right's sparse row of t into the
// touched-word accumulator. Every right row must currently be sparse (or
// empty); the caller's first pass guarantees it. Returns the number of
// distinct targets accumulated.
func (scr *ComposeScratch) scatterSparseRows(ts []int32, r *HybridRelation) int {
	count := 0
	scr.begin()
	for _, t := range ts {
		count += scr.scatter(r.rows[t].ids)
	}
	return count
}

// emitWordsRow stores a fully-populated word accumulator with a known
// count into dst's row s, choosing the sparse or dense form by dst's
// threshold. count must be ≥ 1; the accumulator is left untouched. words
// may be the row's own word array (the dense×CSR kernel accumulates in
// place): a dense result then needs no copy, and a sparse one extracts
// its sorted ids and leaves the words dirty — ignored until the next
// dense fill overwrites them.
func emitWordsRow(dst *HybridRelation, s int32, count int, words []uint64) {
	row := &dst.rows[s]
	row.count = int32(count)
	if count <= dst.sparseMax {
		row.dense = false
		row.ids = row.ids[:0]
		for wi, w := range words {
			base := int32(wi * wordBits)
			for w != 0 {
				row.ids = append(row.ids, base+int32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return
	}
	row.dense = true
	if row.words == nil {
		row.words = make([]uint64, len(words))
	}
	if &row.words[0] != &words[0] {
		copy(row.words, words)
	}
}
