package bitset

// This file holds what a step reports about the relation it built or only
// measured. Every step kernel (step.go) sinks each row either into a
// destination or into a Count alone; a caller that only needs |h ∘ op| —
// the census at its deepest level, an executor at its root — passes no
// destination, and then no id list is built, no dense row copied, no
// active list grown and no destination drawn from a pool.

// Count describes a relation a step kernel measured, built or not. It is
// everything the callers read off a destination they then drop: Pairs and
// Sources equal the destination's, and CloneMemSize prices it exactly as
// HybridRelation.CloneMemSize would.
type Count struct {
	// Pairs is the number of distinct pairs.
	Pairs int64
	// Sources is the number of sources with at least one target.
	Sources int
	// Bytes is the content size of the rows in the representation each
	// would take at the step's promotion limit: 4 B per id for a row of at
	// most that many targets, 8 B per universe word for a larger one.
	Bytes int64
}

// Add folds another count in — the merge of per-shard counts.
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
