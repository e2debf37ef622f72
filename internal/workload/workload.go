// Package workload generates path-query workloads for evaluating
// selectivity estimators. The paper's Figure 2 averages the error over
// *every* path in Lk — an implicit uniform workload. Real optimizers see
// biased streams: queries that mostly have non-empty answers, or that
// concentrate on popular paths. The samplers here make that bias explicit
// so the evaluation can report per-workload accuracy (an extension beyond
// the paper). In the layer map (graph → bitset → paths
// → exec → pathsel) it is an evaluation-side utility feeding
// internal/experiments.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/ordering"
	"repro/internal/paths"
)

// Sampler draws one label path per call.
type Sampler interface {
	// Name identifies the workload shape.
	Name() string
	// Sample draws a path using the supplied source of randomness.
	Sample(rng *rand.Rand) paths.Path
}

// Generate draws n queries deterministically for a seed.
func Generate(s Sampler, n int, seed int64) []paths.Path {
	rng := rand.New(rand.NewSource(seed))
	out := make([]paths.Path, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}

// Uniform samples uniformly over the whole domain of an ordering — the
// implicit workload of the paper's Figure 2 and Table 4.
type Uniform struct {
	Ord ordering.Ordering
}

// Name implements Sampler.
func (u Uniform) Name() string { return "uniform" }

// Sample implements Sampler.
func (u Uniform) Sample(rng *rand.Rand) paths.Path {
	return u.Ord.Path(rng.Int63n(u.Ord.Size()))
}

// NonEmpty samples uniformly over paths with f(ℓ) > 0 — "queries that
// return answers", the typical shape of user-issued queries.
type NonEmpty struct {
	indices []int64 // canonical indices with positive selectivity
	c       *paths.Census
}

// NewNonEmpty builds the sampler from a census. It returns an error when
// the census is entirely empty.
func NewNonEmpty(c *paths.Census) (*NonEmpty, error) {
	s := &NonEmpty{c: c}
	for idx := int64(0); idx < c.Size(); idx++ {
		if c.AtCanonical(idx) > 0 {
			s.indices = append(s.indices, idx)
		}
	}
	if len(s.indices) == 0 {
		return nil, fmt.Errorf("workload: census has no non-empty paths")
	}
	return s, nil
}

// Name implements Sampler.
func (s *NonEmpty) Name() string { return "non-empty" }

// Sample implements Sampler.
func (s *NonEmpty) Sample(rng *rand.Rand) paths.Path {
	idx := s.indices[rng.Intn(len(s.indices))]
	return paths.FromCanonicalIndex(idx, s.c.NumLabels(), s.c.K())
}

// FrequencyWeighted samples paths proportionally to their selectivity —
// the "popular paths get queried more" regime, where estimation error on
// heavy hitters dominates plan quality.
type FrequencyWeighted struct {
	cum []int64 // cumulative selectivity by canonical index
	c   *paths.Census
}

// NewFrequencyWeighted builds the sampler from a census. It returns an
// error when total selectivity is zero.
func NewFrequencyWeighted(c *paths.Census) (*FrequencyWeighted, error) {
	s := &FrequencyWeighted{cum: make([]int64, c.Size()), c: c}
	var total int64
	for idx := int64(0); idx < c.Size(); idx++ {
		total += c.AtCanonical(idx)
		s.cum[idx] = total
	}
	if total == 0 {
		return nil, fmt.Errorf("workload: census has zero total selectivity")
	}
	return s, nil
}

// Name implements Sampler.
func (s *FrequencyWeighted) Name() string { return "freq-weighted" }

// Sample implements Sampler.
func (s *FrequencyWeighted) Sample(rng *rand.Rand) paths.Path {
	target := rng.Int63n(s.cum[len(s.cum)-1]) + 1
	// Binary search the cumulative array.
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return paths.FromCanonicalIndex(int64(lo), s.c.NumLabels(), s.c.K())
}

// FixedLength samples uniformly over the paths of exactly one length —
// the shape of a workload dominated by a single query template.
type FixedLength struct {
	NumLabels int
	Length    int
}

// Name implements Sampler.
func (s FixedLength) Name() string { return fmt.Sprintf("len-%d", s.Length) }

// Sample implements Sampler.
func (s FixedLength) Sample(rng *rand.Rand) paths.Path {
	p := make(paths.Path, s.Length)
	for i := range p {
		p[i] = rng.Intn(s.NumLabels)
	}
	return p
}
