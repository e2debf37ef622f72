package bitset

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// This file holds the relation cache's stored form. A HybridRelation is
// built for rewriting: one row header per universe vertex, so that any
// row can be filled in place. A relation that is only ever read back
// whole needs none of that — Packed keeps the same rows, in the same
// forms and order, in flat arrays, and costs its content instead of |V|
// headers.

// Packed is an immutable snapshot of a HybridRelation: the regime
// (universe, promotion limit), the pair count, the active sources, one
// locator per active source, and every row's content back to back — the
// sparse rows' ids in one array, the dense rows' words in another.
// Nothing in it is sized by the universe, and it is at most five
// allocations however many rows it holds. It is read by copying out:
// CopyInto rebuilds exactly what HybridRelation.CopyInto would have built
// from the source.
type Packed struct {
	n         int
	sparseMax int
	pairs     int64
	active    []int32     // sources with ≥ 1 target, in the source's active order
	rows      []packedRow // rows[i] locates the row of active[i]
	ids       []int32     // sparse rows' targets, each row ascending
	words     []uint64    // dense rows' words, ⌈n/64⌉ per row
}

// packedRow locates one row: where its content starts in Packed.ids
// (sparse) or Packed.words (dense), and how many targets it holds, with
// the top bit of size marking a dense row. Offsets are 32 bits — 16 GiB of
// ids, 32 GiB of words — and Pack refuses a relation that outruns them
// rather than wrap.
type packedRow struct {
	off  uint32
	size uint32
}

const packedDense = 1 << 31

func (r packedRow) count() int32 { return int32(r.size &^ packedDense) }
func (r packedRow) dense() bool  { return r.size&packedDense != 0 }

// rowSource is the read side the copy and reverse kernels share: the rows
// of a HybridRelation or of a Packed (exactly one is set), by position in
// the active list. A concrete type, not an interface, so that walking rows
// is a branch and not an indirect call, and nothing escapes.
type rowSource struct {
	h *HybridRelation
	p *Packed
}

// active returns the sources in the relation's own order.
func (r rowSource) active() []int32 {
	if r.h != nil {
		return r.h.active
	}
	return r.p.active
}

// row returns the i'th active source's row, s's: its target count and its
// content — ids for a sparse row, words for a dense one, the other nil.
func (r rowSource) row(i int, s int32) (count int32, ids []int32, words []uint64) {
	if r.h != nil {
		row := &r.h.rows[s]
		if row.dense {
			return row.count, nil, row.words
		}
		return row.count, row.ids, nil
	}
	loc := r.p.rows[i]
	if loc.dense() {
		return loc.count(), nil, r.p.words[loc.off : int(loc.off)+wordsFor(r.p.n)]
	}
	return loc.count(), r.p.ids[loc.off : int(loc.off)+int(loc.count())], nil
}

// packedMemSize is a Packed's footprint from its array lengths.
func packedMemSize(sources, ids, words int) int {
	return int(unsafe.Sizeof(Packed{})) + sources*(4+int(unsafe.Sizeof(packedRow{}))) + ids*4 + words*8
}

// PackedMemSize returns the exact heap footprint of h.Pack() without
// building it, so a cache can price an entry — and refuse one — before
// paying for the copy: 4 bytes per sparse pair, ⌈n/64⌉ words per dense
// row, 12 bytes per source and a fixed header; nothing per vertex.
func (h *HybridRelation) PackedMemSize() int {
	ids, words := h.contentLen()
	return packedMemSize(len(h.active), ids, words)
}

// Pack returns the packed snapshot of the relation, sharing no storage
// with it. It returns nil, having allocated nothing, for a relation whose
// content outruns the 32-bit row locators; no such relation fits a cache
// shard anyone configures, and a caller treats it as one that does not.
func (h *HybridRelation) Pack() *Packed {
	ids, words := h.contentLen()
	if ids > math.MaxUint32 || words > math.MaxUint32 {
		return nil
	}
	p := &Packed{n: h.n, sparseMax: h.sparseMax, pairs: h.pairs}
	if len(h.active) == 0 {
		return p
	}
	p.active = slices.Clone(h.active)
	p.rows = make([]packedRow, len(h.active))
	if ids > 0 {
		p.ids = make([]int32, 0, ids)
	}
	if words > 0 {
		p.words = make([]uint64, 0, words)
	}
	for i, s := range h.active {
		row := &h.rows[s]
		if row.dense {
			p.rows[i] = packedRow{off: uint32(len(p.words)), size: uint32(row.count) | packedDense}
			p.words = append(p.words, row.words...)
		} else {
			p.rows[i] = packedRow{off: uint32(len(p.ids)), size: uint32(row.count)}
			p.ids = append(p.ids, row.ids...)
		}
	}
	return p
}

// Universe returns the vertex-universe size n of the packed relation.
func (p *Packed) Universe() int { return p.n }

// SparseMax returns the promotion limit the packed rows were formed
// under; with Universe it is the regime a destination must share for a
// copy-out to be what its own kernels would have built.
func (p *Packed) SparseMax() int { return p.sparseMax }

// Pairs returns the number of distinct pairs.
func (p *Packed) Pairs() int64 { return p.pairs }

// CloneMemSize returns the CloneMemSize of the relation p was packed
// from — what a copy-out is priced at, so a result budget sits at the
// same byte whether the relation was built or adopted.
func (p *Packed) CloneMemSize() int {
	return cloneOverhead(p.n, len(p.active)) + len(p.ids)*4 + len(p.words)*8
}

// CopyInto makes dst an exact replica of the relation p was packed from,
// as HybridRelation.CopyInto would have from the source itself: same
// promotion limit, rows, representations, active list and pair count.
// dst is reset first and its row storage reused in place, so adoption
// into a pooled buffer allocates only where the buffer lacks capacity.
// dst must be over the same universe.
func (p *Packed) CopyInto(dst *HybridRelation) {
	if dst.n != p.n {
		panic(fmt.Sprintf("bitset: CopyInto universe %d != %d", dst.n, p.n))
	}
	dst.copyFrom(rowSource{p: p}, p.sparseMax, p.pairs)
}
