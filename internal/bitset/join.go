package bitset

import "math/bits"

// This file holds the accumulate half of the relation×relation join:
// composing a step's left rows with a HybridRelation, as opposed to a CSR
// label operand. The census and a zig-zag leaf only ever extend a relation
// by one label, but bushy join plans (internal/exec.Run) build two path
// segments independently and then join segment×segment, and so does a
// fold's block boundary. Like the compose kernel it is
// representation-adaptive: every left-row × right-row combination
// (sparse×sparse, sparse×dense, dense×sparse, dense×dense) dispatches to a
// specialized accumulation path. The row loop is Rows.JoinShard (step.go).

// JoinInto computes the relational composition h ∘ r into dst:
//
//	(s, u) ∈ dst  ⇔  ∃t: (s, t) ∈ h ∧ (t, u) ∈ r
//
// where both operands are hybrid relations — the step h.Rows().JoinShard
// over every row, at dst's promotion limit. dst is reset first and its
// rows are reused in place, so steady-state joins allocate nothing beyond
// the scratch's first use. Returns the distinct-pair count of dst. dst
// must be distinct from both operands and share their universe; h and r
// may alias (a self-join is legal).
func (h *HybridRelation) JoinInto(dst, r *HybridRelation, scr *ComposeScratch) int64 {
	dst.Reset()
	var c Count
	dst.active, c = h.Rows().JoinShard(dst, r, scr, dst.sparseMax, 0, len(h.active), dst.active)
	dst.pairs = c.Pairs
	return dst.pairs
}

// targets lists a left row's targets in the scratch's id buffer — s first
// when eps makes it one, then the row's ids or a dense row's set bits — so
// a kernel accumulates one left-row shape.
func (scr *ComposeScratch) targets(s int32, eps bool, ids []int32, words []uint64) []int32 {
	scr.tbuf = scr.tbuf[:0]
	if eps {
		scr.tbuf = append(scr.tbuf, s)
	}
	scr.tbuf = append(scr.tbuf, ids...)
	for wi, w := range words {
		base := int32(wi * wordBits)
		for w != 0 {
			scr.tbuf = append(scr.tbuf, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return scr.tbuf
}

// joinAccumulate is the accumulate half of one join row: it gathers the
// targets of r's rows at the left row's targets ts and returns their
// count, with wide reporting which accumulator holds them — the full-width
// one (scr.wide, count ≥ 1, overwritten by the next wide row) or the
// summarized scatter accumulator, which the caller must reset once it has
// read the row.
func (scr *ComposeScratch) joinAccumulate(ts []int32, r *HybridRelation) (count int, wide bool) {
	// First pass: does any intermediate vertex contribute a dense right
	// row? Dense contributions union whole words, which are cheaper to
	// accumulate and count full-width than to scatter bit by bit, so they
	// divert the output row to the full-width path.
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
	if scr.wide == nil {
		scr.wide = make([]uint64, len(scr.words))
	}
	acc := scr.wide
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
	return popcount(acc), true
}

// addSelf adds a left row's own targets ts — a step's skip term — to the
// count targets joinAccumulate left in the accumulator wide names, and
// returns the row's new count.
func (scr *ComposeScratch) addSelf(ts []int32, count int, wide bool) int {
	if !wide {
		return count + scr.scatter(ts)
	}
	for _, u := range ts {
		w := scr.wide[u>>6]
		count += int(^w >> (uint(u) & 63) & 1)
		scr.wide[u>>6] = w | 1<<(uint(u)&63)
	}
	return count
}

// scatterSparseRows is the sparse×sparse join kernel: for each
// intermediate vertex t in ts, scatter right's sparse row of t into the
// summarized accumulator. Every right row must currently be sparse (or
// empty); the caller's first pass guarantees it. Returns the number of
// distinct targets accumulated.
func (scr *ComposeScratch) scatterSparseRows(ts []int32, r *HybridRelation) int {
	count := 0
	for _, t := range ts {
		count += scr.scatter(r.rows[t].ids)
	}
	return count
}

// emitWordsRow stores a fully-populated word accumulator with a known
// count into dst's row s, choosing the sparse or dense form by dst's
// threshold. count must be ≥ 1; the accumulator is left untouched.
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
	copy(row.words, words)
}
