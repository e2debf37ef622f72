// Package core assembles the paper's system: a label-path histogram built
// by laying out the exact selectivity distribution of Lk on an integer
// domain with a chosen ordering method, partitioning that domain with a
// chosen histogram builder, and answering point selectivity queries e(ℓ).
//
// This is the layer the paper's experiments exercise: Table 4 measures
// Estimate latency across ordering methods; Figure 2 measures mean error
// rate of Estimate against the census ground truth.
//
// In the layer map (graph → bitset → paths → exec → pathsel), core sits
// between paths and pathsel: it consumes the paths census and composes
// internal/ordering with internal/histogram into the estimator that
// pathsel (and exec's planner, via an Estimator adapter) consume.
package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/histogram"
	"repro/internal/ordering"
	"repro/internal/paths"
	"repro/internal/stats"
)

// Builder names accepted by Build.
const (
	BuilderVOptimal   = "v-optimal"
	BuilderVOptimalDP = "v-optimal-dp"
	BuilderEquiWidth  = "equi-width"
	BuilderEquiDepth  = "equi-depth"
	BuilderMaxDiff    = "max-diff"
	BuilderEndBiased  = "end-biased"
)

// DomainVector lays the census frequencies out on the histogram domain of
// an ordering: result[ord.Index(ℓ)] = f(ℓ).
func DomainVector(c *paths.Census, ord ordering.Ordering) []int64 {
	if int64(c.Size()) != ord.Size() || c.NumLabels() != ord.NumLabels() || c.K() != ord.K() {
		panic(fmt.Sprintf("core: census (L=%d,k=%d,N=%d) and ordering %s (L=%d,k=%d,N=%d) disagree",
			c.NumLabels(), c.K(), c.Size(), ord.Name(), ord.NumLabels(), ord.K(), ord.Size()))
	}
	data := make([]int64, ord.Size())
	for can := int64(0); can < c.Size(); can++ {
		p := paths.FromCanonicalIndex(can, c.NumLabels(), c.K())
		data[ord.Index(p)] = c.AtCanonical(can)
	}
	return data
}

// PathHistogram is a label-path histogram: an ordering plus a bucket
// synopsis over the ordered domain. Estimation of a path ℓ costs one
// Index computation plus one bucket lookup — no access to the original
// distribution.
type PathHistogram struct {
	ord     ordering.Ordering
	est     histogram.Estimator
	builder string
	beta    int
}

// Build constructs a PathHistogram from a census, an ordering method, a
// builder name, and a bucket budget β.
func Build(c *paths.Census, ord ordering.Ordering, builder string, beta int) (*PathHistogram, error) {
	data := DomainVector(c, ord)
	var est histogram.Estimator
	switch builder {
	case BuilderVOptimal:
		est = histogram.VOptimal(data, beta)
	case BuilderVOptimalDP:
		est = histogram.VOptimalDP(data, beta)
	case BuilderEquiWidth:
		est = histogram.EquiWidth(data, beta)
	case BuilderEquiDepth:
		est = histogram.EquiDepth(data, beta)
	case BuilderMaxDiff:
		est = histogram.MaxDiff(data, beta)
	case BuilderEndBiased:
		est = histogram.NewEndBiased(data, beta)
	default:
		return nil, fmt.Errorf("core: unknown histogram builder %q", builder)
	}
	return &PathHistogram{ord: ord, est: est, builder: builder, beta: beta}, nil
}

// BuildForGraph computes the census of g up to k with the given census
// engine options (worker count, sparse→dense promotion threshold) and
// builds a PathHistogram with the named ordering method; the census is
// dropped once the histogram is built. It refuses a shape past the
// synopsis bounds (see checkShape) before the census is computed.
func BuildForGraph(g *graph.CSR, method, builder string, k, beta int, opt paths.CensusOptions) (*PathHistogram, error) {
	if err := checkShape(method, g.LabelNames(), k); err != nil {
		return nil, err
	}
	ord, err := ordering.ForGraph(method, g, k)
	if err != nil {
		return nil, err
	}
	c, err := paths.NewCensusHybridChecked(g, k, opt)
	if err != nil {
		return nil, err
	}
	return Build(c, ord, builder, beta)
}

// Ordering returns the domain ordering in use.
func (ph *PathHistogram) Ordering() ordering.Ordering { return ph.ord }

// Buckets returns the realized bucket count.
func (ph *PathHistogram) Buckets() int { return ph.est.Buckets() }

// Estimator exposes the underlying synopsis (for bucket inspection).
func (ph *PathHistogram) Estimator() histogram.Estimator { return ph.est }

// Estimate returns e(ℓ), the estimated selectivity of path p.
func (ph *PathHistogram) Estimate(p paths.Path) float64 {
	return ph.est.Estimate(ph.ord.Index(p))
}

// EstimatePrefix answers a prefix wildcard query: the estimated total
// selectivity of p and all of its extensions, as a single histogram range
// query. It requires a lexicographic domain ordering (the only rule under
// which a prefix's extensions are contiguous) and a serial histogram.
func (ph *PathHistogram) EstimatePrefix(p paths.Path) (float64, error) {
	lex, ok := ph.ord.(*ordering.Lexicographic)
	if !ok {
		return 0, fmt.Errorf("core: prefix queries need a lexicographic ordering, have %s", ph.ord.Name())
	}
	h, ok := ph.est.(*histogram.Histogram)
	if !ok {
		return 0, fmt.Errorf("core: prefix queries need a serial histogram, have %s", ph.builder)
	}
	lo, hi := lex.PrefixRange(p)
	return h.EstimateRange(lo, hi), nil
}

// Evaluation aggregates estimation quality over the full path domain.
type Evaluation struct {
	// MeanErrorRate is the mean of |err(ℓ)| (Eq. 6) over all ℓ ∈ Lk — the
	// y-axis of the paper's Figure 2.
	MeanErrorRate float64
	// MeanQError is the mean q-error over all ℓ ∈ Lk.
	MeanQError float64
	// MaxAbsError is the largest |err(ℓ)|.
	MaxAbsError float64
}

// Evaluate measures estimation quality of ph against the census ground
// truth, over every label path in Lk.
func Evaluate(ph *PathHistogram, c *paths.Census) Evaluation {
	var ev Evaluation
	var n int64
	c.ForEach(func(p paths.Path, f int64) bool {
		e := ph.Estimate(p)
		abs := stats.Err(e, float64(f))
		if abs < 0 {
			abs = -abs
		}
		ev.MeanErrorRate += abs
		ev.MeanQError += stats.QError(e, float64(f))
		if abs > ev.MaxAbsError {
			ev.MaxAbsError = abs
		}
		n++
		return true
	})
	ev.MeanErrorRate /= float64(n)
	ev.MeanQError /= float64(n)
	return ev
}
