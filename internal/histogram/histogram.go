// Package histogram implements the bucket synopses used for path
// selectivity estimation: V-Optimal (exact dynamic programming and a
// greedy approximation), equi-width, equi-depth, and MaxDiff histograms
// over an integer frequency vector, plus an end-biased synopsis.
//
// A histogram here follows the paper's setting: the domain is the ordered
// label-path sequence produced by an ordering of Lk, the data distribution
// is the frequency vector f(ℓ) laid out in that order, and a point query
// for domain position i is answered with the average frequency of the
// bucket containing i (the uniform-within-bucket assumption).
//
// In the layer map (graph → bitset → paths → exec → pathsel) this package
// sits beside internal/ordering under internal/core: ordering lays the
// census out on the integer domain, histogram compresses that layout into
// the β-bucket synopsis estimates are answered from.
package histogram

import (
	"fmt"
	"sort"
)

// Estimator answers point queries over a frequency domain [0, N).
type Estimator interface {
	// Estimate returns the estimated frequency at domain position idx.
	Estimate(idx int64) float64
	// Buckets returns the number of buckets (synopsis size driver).
	Buckets() int
}

// Bucket is one histogram bucket: the half-open domain range [Lo, Hi),
// the sum of frequencies inside it, and the within-bucket sum of squared
// errors around the bucket mean (the variance the orderings try to
// minimize).
type Bucket struct {
	Lo, Hi int64
	Sum    int64
	SSE    float64
}

// Width returns the number of domain positions in the bucket.
func (b Bucket) Width() int64 { return b.Hi - b.Lo }

// Mean returns the bucket's average frequency — the estimate it yields.
func (b Bucket) Mean() float64 { return float64(b.Sum) / float64(b.Width()) }

// Histogram is a serial histogram: a partition of the domain [0, N) into
// contiguous buckets.
type Histogram struct {
	kind    string
	n       int64
	buckets []Bucket
	// bounds caches bucket Lo values for binary search at estimation time.
	bounds []int64
}

// Kind returns the construction algorithm name ("v-optimal",
// "v-optimal-dp", "equi-width", "equi-depth", "max-diff").
func (h *Histogram) Kind() string { return h.kind }

// DomainSize returns N.
func (h *Histogram) DomainSize() int64 { return h.n }

// Buckets implements Estimator.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Bucket returns the i-th bucket.
func (h *Histogram) Bucket(i int) Bucket { return h.buckets[i] }

// Find returns the index of the bucket containing domain position idx.
func (h *Histogram) Find(idx int64) int {
	if idx < 0 || idx >= h.n {
		panic(fmt.Sprintf("histogram: position %d out of domain [0,%d)", idx, h.n))
	}
	// First bucket whose Lo is > idx, minus one.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] > idx })
	return i - 1
}

// Estimate implements Estimator: the mean frequency of idx's bucket.
func (h *Histogram) Estimate(idx int64) float64 {
	return h.buckets[h.Find(idx)].Mean()
}

// prefixes holds prefix sums of the data and its squares for O(1) range
// sums and SSEs.
type prefixes struct {
	sum   []int64
	sumSq []float64
}

func newPrefixes(data []int64) *prefixes {
	p := &prefixes{sum: make([]int64, len(data)+1), sumSq: make([]float64, len(data)+1)}
	for i, x := range data {
		p.sum[i+1] = p.sum[i] + x
		p.sumSq[i+1] = p.sumSq[i] + float64(x)*float64(x)
	}
	return p
}

// rangeSum returns Σ data[lo:hi].
func (p *prefixes) rangeSum(lo, hi int64) int64 { return p.sum[hi] - p.sum[lo] }

// rangeSSE returns Σ (data[i] − mean)² over [lo, hi).
func (p *prefixes) rangeSSE(lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	n := float64(hi - lo)
	s := float64(p.rangeSum(lo, hi))
	return (p.sumSq[hi] - p.sumSq[lo]) - s*s/n
}

// fromBoundaries assembles a histogram from sorted bucket start positions
// (the first must be 0).
func fromBoundaries(kind string, data []int64, starts []int64) *Histogram {
	p := newPrefixes(data)
	n := int64(len(data))
	h := &Histogram{kind: kind, n: n}
	// Drop degenerate boundaries at or past the domain end (they would
	// create empty buckets; equi-depth on zero-mass data produces them).
	for len(starts) > 1 && starts[len(starts)-1] >= n {
		starts = starts[:len(starts)-1]
	}
	for i, lo := range starts {
		hi := n
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		h.buckets = append(h.buckets, Bucket{
			Lo: lo, Hi: hi,
			Sum: p.rangeSum(lo, hi),
			SSE: p.rangeSSE(lo, hi),
		})
		h.bounds = append(h.bounds, lo)
	}
	return h
}

// FromBuckets reconstructs a serial histogram from explicit buckets (the
// persistence path). Buckets must form a contiguous partition of [0, n).
// Unlike the builders this returns an error instead of panicking, because
// the input typically comes from a file.
func FromBuckets(kind string, n int64, buckets []Bucket) (*Histogram, error) {
	if n < 1 || len(buckets) == 0 {
		return nil, fmt.Errorf("histogram: empty reconstruction (n=%d, %d buckets)", n, len(buckets))
	}
	h := &Histogram{kind: kind, n: n}
	var prev int64
	for i, b := range buckets {
		if b.Lo != prev || b.Hi <= b.Lo {
			return nil, fmt.Errorf("histogram: bucket %d [%d,%d) breaks the partition at %d", i, b.Lo, b.Hi, prev)
		}
		prev = b.Hi
		h.buckets = append(h.buckets, b)
		h.bounds = append(h.bounds, b.Lo)
	}
	if prev != n {
		return nil, fmt.Errorf("histogram: buckets end at %d, want %d", prev, n)
	}
	return h, nil
}

func validate(data []int64, beta int) {
	if len(data) == 0 {
		panic("histogram: empty data distribution")
	}
	if beta < 1 {
		panic(fmt.Sprintf("histogram: need at least 1 bucket, got %d", beta))
	}
}

// clampBeta caps the bucket count at the domain size (every bucket must be
// non-empty).
func clampBeta(beta int, n int) int {
	if beta > n {
		return n
	}
	return beta
}
