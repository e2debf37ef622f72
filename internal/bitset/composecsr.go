package bitset

import "fmt"

// This file holds the kernels whose left side is read straight from the
// graph: a label's relation is its CSR rows, so a step that starts from a
// label — the first join step of a concrete path, the size of a label-set
// base nobody keeps — needs no relation built out of them first. The
// methods mirror HybridRelation's (ComposeInto, ComposeShardInto,
// ComposeShardCount) with a as the left relation FillFromCSR(a) would have
// been: a row takes the scatter kernel or the dense-set union by its length
// against the destination's promotion limit, exactly as that relation's
// sparse or dense row would have, and what is emitted depends on final
// counts alone, so the result is bit-identical to fill-then-compose.

// ComposeInto computes a ∘ op into dst, the rows of a read in place. dst is
// reset first; a and op must be over dst's universe. Returns the
// distinct-pair count of dst.
func (a CSROperand) ComposeInto(dst *HybridRelation, op CSROperand, scr *ComposeScratch) int64 {
	dst.Reset()
	dst.active, dst.pairs = a.ComposeShardInto(dst, op, scr, 0, a.N, dst.active)
	return dst.pairs
}

// checkLeft validates a vertex-range shard of a ∘ op over an n-vertex
// universe.
func (a CSROperand) checkLeft(n int, op CSROperand, lo, hi int) {
	if a.N != n || op.N != n {
		panic(fmt.Sprintf("bitset: operand universes %d, %d != relation universe %d", a.N, op.N, n))
	}
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("bitset: shard [%d,%d) out of vertex range [0,%d)", lo, hi, n))
	}
}

// denseListCompose is denseRowCompose for a left row held as an id list: it
// unions the dense successor set of every t in ts into out word-parallel,
// under the same contract (out may be stale; 0 means it is garbage).
func denseListCompose(ts []int32, op CSROperand, out []uint64) int {
	first := true
	for _, t := range ts {
		d := op.Dense[t]
		if d == nil {
			continue
		}
		if first {
			copy(out, d.words)
			first = false
		} else {
			for i, dw := range d.words {
				out[i] |= dw
			}
		}
	}
	if first {
		return 0
	}
	return popcount(out)
}

// ComposeShardInto composes the rows of a ∘ op whose sources lie in the
// vertex range [lo, hi) into dst's row array — the partitioned form of
// ComposeInto, under HybridRelation.ComposeShardInto's contract: disjoint
// ranges may run concurrently against one dst the coordinator has Reset,
// each with its own scratch, and are merged with AdoptShard in ascending
// order. The unit is the vertex, not a position in an active list: the
// left side has no such list, which is the point.
func (a CSROperand) ComposeShardInto(dst *HybridRelation, op CSROperand, scr *ComposeScratch, lo, hi int, buf []int32) ([]int32, int64) {
	a.checkLeft(dst.n, op, lo, hi)
	ops := []CSROperand{op}
	buf = buf[:0]
	var pairs int64
	for v := lo; v < hi; v++ {
		ts := a.Targets[a.Offsets[v]:a.Offsets[v+1]]
		if len(ts) == 0 {
			continue
		}
		var count int
		if len(ts) > dst.sparseMax {
			// A long row accumulates straight into the destination row's
			// own word array, as composeRow's dense rows do.
			drow := &dst.rows[v]
			if drow.words == nil {
				drow.words = make([]uint64, len(scr.words))
			}
			if count = denseListCompose(ts, op, drow.words); count > 0 {
				emitWordsRow(dst, int32(v), count, drow.words)
			}
		} else {
			if count = scr.scatterSparse(ts, ops); count > 0 {
				scr.emitRow(dst, int32(v), count)
			}
			scr.reset()
		}
		if count > 0 {
			buf = append(buf, int32(v))
			pairs += int64(count)
		}
		if scr.cancelled(count) {
			return buf, pairs // partial shard; the coordinator discards it
		}
	}
	return buf, pairs
}

// ComposeShardCount measures the rows of a ∘ op whose sources lie in the
// vertex range [lo, hi) — the relation ComposeShardInto would write into a
// destination with promotion limit sparseMax — without building them.
func (a CSROperand) ComposeShardCount(op CSROperand, scr *ComposeScratch, sparseMax, lo, hi int) Count {
	a.checkLeft(a.N, op, lo, hi)
	ops := []CSROperand{op}
	var c Count
	for v := lo; v < hi; v++ {
		ts := a.Targets[a.Offsets[v]:a.Offsets[v+1]]
		if len(ts) == 0 {
			continue
		}
		var count int
		if len(ts) > sparseMax {
			count = denseListCompose(ts, op, scr.wideWords())
		} else {
			count = scr.scatterSparse(ts, ops)
			scr.reset()
		}
		if count > 0 {
			c.addRow(count, sparseMax, len(scr.words))
		}
		if scr.cancelled(count) {
			return c
		}
	}
	return c
}

// UnionCSRCount measures the union of the operands' length-1 path
// relations — the relation FillUnionCSR would build at promotion limit
// sparseMax — without building it: the same accumulate per vertex, the
// row's size read off instead of emitted. With one operand it is the price
// of that label's relation, read from its row lengths alone.
func UnionCSRCount(ops []CSROperand, scr *ComposeScratch, sparseMax int) Count {
	var c Count
	offs, tgts := ops[0].Offsets, ops[0].Targets
	for v := 0; v < ops[0].N; v++ {
		first, count := scr.unionRow(tgts[offs[v]:offs[v+1]], ops[1:], v)
		if count == 0 {
			continue
		}
		if first == nil {
			scr.reset()
		}
		c.addRow(count, sparseMax, len(scr.words))
		if scr.cancelled(count) {
			return c
		}
	}
	return c
}
