package bitset

import (
	"fmt"
	"unsafe"
)

// This file holds the memory-accounting and replication operations of
// HybridRelation: CloneMemSize is the content-sized measure every result
// budget prices by, and CopyInto and Clone replicate a relation into a
// pooled buffer or a fresh one. The relation cache (internal/relcache)
// stores neither: its form is Packed (packed.go), which shares CopyInto's
// kernel.

// SparseLimit returns the maximum sparse row population implied by a
// density threshold over an n-vertex universe — the exported form of the
// rule NewHybrid applies (≤ 0 selects DefaultDensityThreshold, ≥ 1 keeps
// every row sparse). Two relations over the same universe with equal
// SparseLimit values materialize every pair set with identical row
// representations, which is the compatibility test the relation cache
// applies before adopting a cached entry.
func SparseLimit(n int, density float64) int {
	return sparseLimit(n, density)
}

// CloneMemSize returns the exact heap footprint a Clone of the relation
// would occupy, without building one: every slice counted at content
// length (sparse ids or dense words per each row's current form). It is
// the measure result budgets price a relation by (exec.Options
// .MaxResultBytes), whether it was built, counted or adopted.
func (h *HybridRelation) CloneMemSize() int {
	ids, words := h.contentLen()
	return cloneOverhead(len(h.rows), len(h.active)) + ids*4 + words*8
}

// contentLen returns the relation's row content in its current forms:
// the ids its sparse rows hold and the words its dense rows hold.
func (h *HybridRelation) contentLen() (ids, words int) {
	for _, s := range h.active {
		row := &h.rows[s]
		if row.dense {
			words += len(row.words)
		} else {
			ids += len(row.ids)
		}
	}
	return ids, words
}

// cloneOverhead is the part of a clone's footprint that is not row
// content: the struct header, one row header per universe vertex, and the
// active-source list at content length.
func cloneOverhead(n, sources int) int {
	return int(unsafe.Sizeof(HybridRelation{})) + sources*4 + n*int(unsafe.Sizeof(hrow{}))
}

// CopyInto makes dst an exact logical replica of h: same universe, same
// promotion limit, same rows in the same representations, same active
// list and pair count. dst is reset first and its row storage is reused
// in place, so copying into a pooled execution buffer allocates only
// where the buffer lacks capacity. dst must be a distinct relation over
// the same universe; its own density threshold is overwritten by h's,
// keeping the replica bit-identical to h no matter how dst was
// constructed.
//
// No production code calls it since the relation cache stores Packed
// (whose CopyInto is the adoption path); the frozen bench/ times it and
// the equivalence tests use it as the reference. ROADMAP items 16(b) and
// 1′(b) delete it.
func (h *HybridRelation) CopyInto(dst *HybridRelation) {
	if dst == h {
		panic("bitset: CopyInto aliasing dst == receiver")
	}
	if dst.n != h.n {
		panic(fmt.Sprintf("bitset: CopyInto universe %d != %d", dst.n, h.n))
	}
	dst.copyFrom(rowSource{h: h}, h.sparseMax, h.pairs)
}

// copyFrom is the replication kernel behind both CopyInto methods: h
// becomes the relation src holds, row for row, under src's promotion
// limit.
func (h *HybridRelation) copyFrom(src rowSource, sparseMax int, pairs int64) {
	h.Reset()
	h.sparseMax = sparseMax
	h.active = append(h.active[:0], src.active()...)
	h.pairs = pairs
	for i, s := range h.active {
		count, ids, words := src.row(i, s)
		row := &h.rows[s]
		row.count = count
		if words != nil {
			row.dense = true
			if row.words == nil {
				row.words = make([]uint64, len(words))
			}
			copy(row.words, words)
		} else {
			row.ids = append(row.ids[:0], ids...)
		}
	}
}

// Clone returns a private exact-size copy of the relation: every slice is
// allocated at its content length, so the clone's footprint is the
// tightest the pair set admits (dirty dense words of demoted rows are
// dropped, spare capacity is trimmed). The clone shares no storage with
// the receiver, and still carries one row header per universe vertex —
// which is why the relation cache stores Pack's result instead.
//
// No production code calls it any more: the frozen bench/ times it and
// tests use it for private copies. ROADMAP items 16(b) and 1′(b) delete
// it.
func (h *HybridRelation) Clone() *HybridRelation {
	c := &HybridRelation{n: h.n, sparseMax: h.sparseMax, rows: make([]hrow, h.n), pairs: h.pairs}
	if len(h.active) > 0 {
		c.active = make([]int32, len(h.active))
		copy(c.active, h.active)
	}
	for _, s := range h.active {
		src := &h.rows[s]
		row := &c.rows[s]
		row.count = src.count
		if src.dense {
			row.dense = true
			row.words = make([]uint64, len(src.words))
			copy(row.words, src.words)
		} else {
			row.ids = make([]int32, len(src.ids))
			copy(row.ids, src.ids)
		}
	}
	return c
}
