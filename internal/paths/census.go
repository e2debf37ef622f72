package paths

import (
	"fmt"

	"repro/internal/combinat"
)

// Census holds the exact selectivity f(ℓ) of every label path ℓ ∈ Lk over
// a graph — the complete data distribution from which label-path
// histograms are built. Frequencies are indexed by CanonicalIndex, so a
// Census is independent of any domain ordering; orderings permute it.
type Census struct {
	numLabels int
	k         int
	freq      []int64
}

// NumLabels returns |L|.
func (c *Census) NumLabels() int { return c.numLabels }

// K returns the maximum path length covered.
func (c *Census) K() int { return c.k }

// Size returns |Lk|, the number of label paths in the census.
func (c *Census) Size() int64 { return int64(len(c.freq)) }

// Selectivity returns f(ℓ).
func (c *Census) Selectivity(p Path) int64 {
	return c.freq[CanonicalIndex(p, c.numLabels, c.k)]
}

// AtCanonical returns f(ℓ) for the path with the given canonical index.
func (c *Census) AtCanonical(idx int64) int64 { return c.freq[idx] }

// LabelFrequencies returns f(l) for each length-1 path, the input to the
// cardinality ranking rule.
func (c *Census) LabelFrequencies() []int64 {
	out := make([]int64, c.numLabels)
	for l := 0; l < c.numLabels; l++ {
		out[l] = c.freq[CanonicalIndex(Path{l}, c.numLabels, c.k)]
	}
	return out
}

// PrefixSelectivity returns Σ f(ℓ) over p and every extension of p within
// Lk — the ground truth of a prefix wildcard query "p/*".
func (c *Census) PrefixSelectivity(p Path) int64 {
	total := c.Selectivity(p)
	if len(p) < c.k {
		ext := append(p.Clone(), 0)
		for l := 0; l < c.numLabels; l++ {
			ext[len(ext)-1] = l
			total += c.PrefixSelectivity(ext)
		}
	}
	return total
}

// ForEach calls fn for every path in canonical order with its selectivity.
// It stops early when fn returns false.
func (c *Census) ForEach(fn func(p Path, f int64) bool) {
	for idx := int64(0); idx < int64(len(c.freq)); idx++ {
		if !fn(FromCanonicalIndex(idx, c.numLabels, c.k), c.freq[idx]) {
			return
		}
	}
}

// FromFrequencies builds a census directly from a canonical-order
// frequency vector; used by tests and synthetic-distribution experiments.
// The slice is not copied.
func FromFrequencies(numLabels, k int, freq []int64) *Census {
	want := combinat.GeometricSum(int64(numLabels), int64(k))
	if int64(len(freq)) != want {
		panic(fmt.Sprintf("paths: frequency vector has %d entries, want %d", len(freq), want))
	}
	return &Census{numLabels: numLabels, k: k, freq: freq}
}
