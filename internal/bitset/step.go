package bitset

import "fmt"

// This file holds the step: the one operation the census and the executor
// both run, a prefix's rows composed through labels or joined with a
// segment. Its left side is Rows — a relation's active rows, or a label's
// CSR rows read in place, so a step that starts from a label never builds
// that label's relation — and its output goes to a sink: dst's rows when a
// destination is given, the returned Count alone when it is nil. Either way
// every row is accumulated once and measured from its final count, so a
// counted step reports exactly what the built one would have, and a built
// one is bit-identical whichever form its left rows came in — and whether
// its identity terms (Extend) were fused into it or united after it.

// Rows is the left side of a step, by position: the active rows of a
// HybridRelation (h.Rows()), every vertex's row of one (h.Extend with eps),
// or the non-empty rows of a label's CSR, one position per listed source
// (op.Rows()). The kernels read a row inline in their loops; a per-row
// accessor is past the inliner's budget.
type Rows struct {
	h          *HybridRelation // the relation, or nil for CSR rows
	n          int             // universe
	offs, tgts []int32         // CSR rows: v's is tgts[offs[v]:offs[v+1]]
	active     []int32         // CSR rows: the non-empty ones, ascending
	eps, skip  bool            // the identity terms, see Extend
}

// Rows returns the relation's active rows as a step's left side.
func (h *HybridRelation) Rows() Rows { return Rows{h: h, n: h.n} }

// Extend returns the relation R as the left side of a step that extends it
// by an element X where either side may match the empty path: eps makes the
// left side R ∪ I — every vertex is a position, and its own row of X one
// more term — and skip makes the right side X ∪ I — every left row adds
// itself to its output. The pair I∘I is never added, so the step is
//
//	R∘X ∪ (eps ? X : ∅) ∪ (skip ? R : ∅)
//
// in one pass. With eps a vertex off the active list is read as a row, so
// such rows must be empty — as Reset and every completed step leave them.
func (h *HybridRelation) Extend(eps, skip bool) Rows {
	return Rows{h: h, n: h.n, eps: eps, skip: skip}
}

// Rows returns the operand's CSR rows as a step's left side.
func (op CSROperand) Rows() Rows {
	return Rows{n: op.N, offs: op.Offsets, tgts: op.Targets, active: op.Active}
}

// Len returns the number of positions a shard range partitions: the
// non-empty rows — a relation's active ones, a CSR's listed ones — or,
// with eps, every vertex.
func (r Rows) Len() int {
	switch {
	case r.eps:
		return r.n
	case r.h != nil:
		return len(r.h.active)
	}
	return len(r.active)
}

// Pairs returns the number of pairs the rows hold: with eps, the identity's
// n as well, the most R ∪ I can hold.
func (r Rows) Pairs() int64 {
	switch {
	case r.h == nil:
		return int64(len(r.tgts))
	case r.eps:
		return r.h.pairs + int64(r.n)
	}
	return r.h.pairs
}

// check validates a step's shard [lo, hi) and, when the step is built, its
// destination.
func (r Rows) check(dst *HybridRelation, limit, lo, hi int) {
	if lo < 0 || hi > r.Len() || lo > hi {
		panic(fmt.Sprintf("bitset: shard [%d,%d) out of range [0,%d)", lo, hi, r.Len()))
	}
	if dst == nil {
		return
	}
	if dst == r.h {
		panic("bitset: step aliasing dst == left relation")
	}
	checkDst(dst, r.n, limit)
}

// checkDst panics unless dst is over an n-vertex universe with promotion
// limit limit: a step measures rows at limit, so it must build them there.
func checkDst(dst *HybridRelation, n, limit int) {
	if dst.n != n || dst.sparseMax != limit {
		panic(fmt.Sprintf("bitset: destination universe %d, limit %d != step's %d, %d", dst.n, dst.sparseMax, n, limit))
	}
}

// ComposeShard runs positions [lo, hi) of the step r ∘ (⋃ ops) — one
// operand is a compose step, several a step through a label set, whose
// union is never built — with r's identity terms (Extend) fused in:
//
//	(s, u) ∈ r ∘ (⋃ ops)  ⇔  ∃t, op ∈ ops: (s, t) ∈ r ∧ u ∈ op.successors(t)
//
// Every row takes one kernel, push: it scatters its targets' CSR rows into
// the summarized accumulator — a sparse row's ids, a dense row's set bits
// enumerated in place, a CSR row's targets whatever its length — so a
// target costs its degree, never the universe. An eps term is one more
// target, a skip term the row's own ids or bits added. The row is emitted
// in the form its final count picks. It returns the shard's Count and,
// built, its sources appended to buf[:0].
//
// Shards with disjoint ranges may run concurrently against one dst, each
// with its own scratch: a shard writes its own rows only, never dst's
// active list or pair count. The coordinator Resets dst first and adopts
// the shards in ascending order (AdoptShard), which is bit-identical to the
// whole range run as one shard. dst, when given, must be distinct from r's
// relation and have limit as its promotion limit, and ops must share r's
// universe. A raised cancel flag stops the shard at its next poll with a
// partial result the caller must discard.
func (r Rows) ComposeShard(dst *HybridRelation, ops []CSROperand, scr *ComposeScratch, limit, lo, hi int, buf []int32) ([]int32, Count) {
	r.check(dst, limit, lo, hi)
	checkOperands(r.n, ops)
	buf = buf[:0]
	var c Count
	for i := lo; i < hi; i++ {
		s, ids, words := int32(i), []int32(nil), []uint64(nil)
		if r.h != nil {
			if !r.eps {
				s = r.h.active[i]
			}
			if row := &r.h.rows[s]; row.dense {
				words = row.words
			} else {
				ids = row.ids
			}
		} else {
			s = r.active[i]
			ids = r.tgts[r.offs[s]:r.offs[s+1]]
		}
		count := scr.push(s, r.eps, ids, words, ops)
		if r.skip {
			count += scr.scatter(ids) + scr.addWords(words)
		}
		if count > 0 && dst != nil {
			scr.emitRow(dst, s, count)
		}
		scr.reset()
		if count > 0 {
			if dst != nil {
				buf = append(buf, s)
			}
			c.addRow(count, limit, len(scr.words))
		}
		if scr.cancelled(count) {
			break
		}
	}
	return buf, c
}

// JoinShard runs positions [lo, hi) of the step r ∘ right, a join with a
// relation, with r's identity terms (Extend) fused in:
//
//	(s, u) ∈ r ∘ right  ⇔  ∃t: (s, t) ∈ r ∧ (t, u) ∈ right
//
// A row whose right-side inputs are all sparse accumulates through the
// summarized scatter; a single dense one switches the row to the
// full-width accumulator, since dense unions touch words wholesale. An eps
// term is one more target, a skip term the row's own targets added to
// whichever accumulator holds the row. Sinks, shards and preconditions are
// ComposeShard's; dst must be distinct from right too, and right may be r's
// own relation (a self-join).
func (r Rows) JoinShard(dst, right *HybridRelation, scr *ComposeScratch, limit, lo, hi int, buf []int32) ([]int32, Count) {
	r.check(dst, limit, lo, hi)
	if right.n != r.n {
		panic(fmt.Sprintf("bitset: join operand universe %d != relation universe %d", right.n, r.n))
	}
	if dst == right {
		panic("bitset: join aliasing dst == operand")
	}
	buf = buf[:0]
	var c Count
	for i := lo; i < hi; i++ {
		s, ids, words := int32(i), []int32(nil), []uint64(nil)
		if r.h != nil {
			if !r.eps {
				s = r.h.active[i]
			}
			if row := &r.h.rows[s]; row.dense {
				words = row.words
			} else {
				ids = row.ids
			}
		} else {
			s = r.active[i]
			ids = r.tgts[r.offs[s]:r.offs[s+1]]
		}
		if words != nil || r.eps {
			ids = scr.targets(s, r.eps, ids, words)
		}
		count, wide := scr.joinAccumulate(ids, right)
		if r.skip {
			if r.eps {
				ids = ids[1:]
			}
			count = scr.addSelf(ids, count, wide)
		}
		if count > 0 && dst != nil {
			if wide {
				emitWordsRow(dst, s, count, scr.wide)
			} else {
				scr.emitRow(dst, s, count)
			}
		}
		if !wide {
			scr.reset()
		}
		if count > 0 {
			if dst != nil {
				buf = append(buf, s)
			}
			c.addRow(count, limit, len(scr.words))
		}
		if scr.cancelled(count) {
			break
		}
	}
	return buf, c
}

// UnionCSR makes dst the union of the operands' length-1 path relations —
// the base of an alternation or wildcard — in one ascending pass over the
// vertices, or, dst nil, only measures it: with one operand, the price of
// that label's relation read from its row lengths. A vertex only one
// operand reaches copies that operand's row; one several reach scatters
// them all and emits once. Either way a row's form is chosen from its final
// count, as UnionWith ends up choosing it, so the result is bit-identical
// to FillFromCSR of the first operand followed by a UnionWith per further
// one — rows, representations, active order and pair count. Only the
// operands' CSR arrays are read. There must be at least one operand, all
// over one universe; dst, when given, must share it and have limit as its
// promotion limit, and is Reset first. A raised cancel flag leaves a
// partial union the caller must discard.
func UnionCSR(dst *HybridRelation, ops []CSROperand, scr *ComposeScratch, limit int) Count {
	n := ops[0].N
	checkOperands(n, ops)
	if dst != nil {
		checkDst(dst, n, limit)
		dst.Reset()
	}
	var c Count
	offs, tgts := ops[0].Offsets, ops[0].Targets
	for v := 0; v < n; v++ {
		first, count := scr.unionRow(tgts[offs[v]:offs[v+1]], ops[1:], v)
		if count == 0 {
			continue
		}
		if dst != nil {
			if first != nil {
				dst.setRow(v, first)
			} else {
				scr.emitRow(dst, int32(v), count)
			}
			dst.active = append(dst.active, int32(v))
		}
		if first == nil {
			scr.reset()
		}
		c.addRow(count, limit, len(scr.words))
		if scr.cancelled(count) {
			break
		}
	}
	if dst != nil {
		dst.pairs = c.Pairs
	}
	return c
}
