package bitset

import (
	"fmt"
	"unsafe"
)

// This file holds the memory-accounting and replication operations added
// for the workload-level relation cache (internal/relcache): MemSize is
// the cache's byte-accounting primitive, Clone builds the immutable
// exact-size copy the cache stores, and CopyInto adopts a cached relation
// back into a pooled buffer without disturbing the pool discipline.

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

// SparseMax returns the relation's sparse→dense promotion limit: rows
// with more targets than this are dense. Together with Universe it
// identifies the representation regime, so a caller can check that two
// relations are structurally interchangeable.
func (h *HybridRelation) SparseMax() int { return h.sparseMax }

// MemSize returns the exact heap footprint of the relation in bytes: the
// struct header, the row-header array (one hrow per universe vertex), the
// active-source index, and every row's sparse id list and dense word
// array at their allocated capacities. Demoted rows that retain a dirty
// dense word array are charged for it — the memory is still held. This is
// the byte cost the relation cache accounts entries by, and it answers
// the census memory question directly: a relation's footprint is dominated
// by n row headers plus the pair payload in whichever form each row holds.
func (h *HybridRelation) MemSize() int {
	size := int(unsafe.Sizeof(*h))
	size += cap(h.active) * 4
	size += len(h.rows) * int(unsafe.Sizeof(hrow{}))
	for i := range h.rows {
		row := &h.rows[i]
		size += cap(row.ids)*4 + cap(row.words)*8
	}
	return size
}

// CloneMemSize returns the exact MemSize a Clone of the relation would
// occupy, without building one: every slice counted at content length
// (sparse ids or dense words per each row's current form), so a cache
// can price an entry — and reject an oversized one — before paying for
// the copy.
func (h *HybridRelation) CloneMemSize() int {
	size := cloneOverhead(len(h.rows), len(h.active))
	for _, s := range h.active {
		row := &h.rows[s]
		if row.dense {
			size += len(row.words) * 8
		} else {
			size += len(row.ids) * 4
		}
	}
	return size
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
// in place, so adopting a cached relation into a pooled execution buffer
// allocates only where the buffer lacks capacity. dst must be a distinct
// relation over the same universe; its own density threshold is
// overwritten by h's, keeping the replica bit-identical to h no matter
// how dst was constructed.
func (h *HybridRelation) CopyInto(dst *HybridRelation) {
	if dst == h {
		panic("bitset: CopyInto aliasing dst == receiver")
	}
	if dst.n != h.n {
		panic(fmt.Sprintf("bitset: CopyInto universe %d != %d", dst.n, h.n))
	}
	dst.Reset()
	dst.sparseMax = h.sparseMax
	dst.active = append(dst.active[:0], h.active...)
	dst.pairs = h.pairs
	for _, s := range h.active {
		src := &h.rows[s]
		row := &dst.rows[s]
		row.count = src.count
		if src.dense {
			row.dense = true
			if row.words == nil {
				row.words = make([]uint64, len(src.words))
			}
			copy(row.words, src.words)
		} else {
			row.ids = append(row.ids[:0], src.ids...)
		}
	}
}

// Clone returns a private exact-size copy of the relation: every slice is
// allocated at its content length, so the clone's MemSize is the tightest
// footprint the pair set admits (dirty dense words of demoted rows are
// dropped, spare capacity is trimmed). The clone shares no storage with
// the receiver — this is the copy the relation cache stores, immutable by
// convention while the originating pooled buffers are reused.
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
