package bitset

import "fmt"

// This file holds the count forms of the compose and join kernels: the
// same per-row accumulate steps as ComposeInto / JoinInto (scatterSparse,
// denseRowCompose, joinAccumulate), with the emit half replaced by reading
// the row's count off the accumulator. A caller that only needs |h ∘ op| —
// the census at its deepest level, an executor at its root — never builds
// the relation: no id list is sorted, no dense row copied, no active list
// grown, and no destination is drawn from a pool.

// Count describes a relation a count kernel measured without building it.
// It is everything the callers of the materializing kernels read off a
// destination they then drop: Pairs and Sources equal the destination's,
// and CloneMemSize prices it exactly as HybridRelation.CloneMemSize would.
type Count struct {
	// Pairs is the number of distinct pairs.
	Pairs int64
	// Sources is the number of sources with at least one target.
	Sources int
	// Bytes is the content size of the rows in the representation each
	// would take at the receiver's promotion limit: 4 B per id for a row
	// of at most SparseMax targets, 8 B per universe word for a larger one.
	Bytes int64
}

// Add folds another count in — the merge of per-shard counts, which needs
// no ordering because nothing positional was built.
func (c *Count) Add(o Count) {
	c.Pairs += o.Pairs
	c.Sources += o.Sources
	c.Bytes += o.Bytes
}

// CloneMemSize returns the CloneMemSize of the counted relation over an
// n-vertex universe: header, row headers and active list as
// HybridRelation.CloneMemSize counts them, plus the row content.
func (c Count) CloneMemSize(n int) int {
	return cloneOverhead(n, c.Sources) + int(c.Bytes)
}

// addRow accounts one non-empty row of count targets in a relation with
// the given promotion limit over a universe of words words.
func (c *Count) addRow(count, sparseMax, words int) {
	c.Pairs += int64(count)
	c.Sources++
	if count <= sparseMax {
		c.Bytes += int64(count) * 4
	} else {
		c.Bytes += int64(words) * 8
	}
}

// ComposeCount measures h ∘ op — the relation ComposeInto would write into
// a destination with h's promotion limit — without building it. A raised
// cancel flag stops it like ComposeInto, with a partial count the caller
// must discard.
func (h *HybridRelation) ComposeCount(op CSROperand, scr *ComposeScratch) Count {
	return h.ComposeShardCount([]CSROperand{op}, scr, 0, len(h.active))
}

// ComposeShardCount measures h ∘ (⋃ ops) over the rows of h's
// active-source slice in index positions [lo, hi) — the count form of
// ComposeShardInto. Shards share nothing but the read-only operands, so
// they run concurrently (each with its own scratch) and merge with
// Count.Add.
func (h *HybridRelation) ComposeShardCount(ops []CSROperand, scr *ComposeScratch, lo, hi int) Count {
	checkOperands(h.n, ops)
	h.checkShard(lo, hi)
	var c Count
	for _, s := range h.active[lo:hi] {
		row := &h.rows[s]
		var count int
		if row.dense {
			count = denseRowCompose(row.words, ops, scr.wideWords())
		} else {
			count = scr.scatterSparse(row.ids, ops)
			scr.reset()
		}
		if count > 0 {
			c.addRow(count, h.sparseMax, len(scr.words))
		}
		if scr.cancelled(count) {
			return c
		}
	}
	return c
}

// JoinCount measures h ∘ r — the relation JoinInto would write into a
// destination with h's promotion limit — without building it. h and r
// may alias.
func (h *HybridRelation) JoinCount(r *HybridRelation, scr *ComposeScratch) Count {
	return h.JoinShardCount(r, scr, 0, len(h.active))
}

// JoinShardCount is JoinCount over the rows of h's active-source slice in
// index positions [lo, hi) — the count form of JoinShardInto, with the
// concurrency contract of ComposeShardCount.
func (h *HybridRelation) JoinShardCount(r *HybridRelation, scr *ComposeScratch, lo, hi int) Count {
	if r.n != h.n {
		panic(fmt.Sprintf("bitset: join operand universe %d != relation universe %d", r.n, h.n))
	}
	h.checkShard(lo, hi)
	var c Count
	for _, s := range h.active[lo:hi] {
		count, wide := h.joinAccumulate(r, scr, s)
		if !wide {
			scr.reset()
		}
		if count > 0 {
			c.addRow(count, h.sparseMax, len(scr.words))
		}
		if scr.cancelled(count) {
			return c
		}
	}
	return c
}
