package pathsel

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/paths"
)

// Save writes the estimator's synopsis — label vocabulary, ordering
// method, ranking and bucket list — as one compact versioned binary blob
// (the format is internal/core's codec). Neither the CSR nor any exact
// count is saved: the whole point of the histogram is that estimation
// needs only the synopsis. Load the result with LoadEstimator.
//
// Only the five paper ordering methods with serial histograms are
// serializable; any other fails, as does a failing writer.
func (e *Estimator) Save(w io.Writer) error { return core.WriteSynopsis(w, e.names, e.ph) }

// synopsis is the estimator the paper describes — a label vocabulary, a
// domain ordering and β buckets — and answers by label-name path without
// the graph or the census. CompactEstimator is one; an Estimator is one
// plus the CSR it was built on.
type synopsis struct {
	vocab
	ph *core.PathHistogram
}

// CompactEstimator is a loaded synopsis: it answers Estimate and
// EstimatePrefix queries by label-name path without the original graph
// (so there is no Evaluate or TrueSelectivity — those compute exact
// answers from the graph, which only an Estimator holds).
type CompactEstimator struct{ synopsis }

// LoadEstimator reads a synopsis written by Estimator.Save. A blob the
// codec refuses — truncated, out of its bounds, not a ranking of its
// vocabulary, buckets that do not partition the domain — or whose
// vocabulary NewGraphChecked would refuse fails with ErrBadSnapshot,
// wrapping the cause (ErrBadLabelName and ErrDuplicateLabel among them).
func LoadEstimator(r io.Reader) (*CompactEstimator, error) {
	names, ph, err := core.ReadSynopsis(r)
	var v vocab
	if err == nil {
		v, err = newVocab(names)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return &CompactEstimator{synopsis{vocab: v, ph: ph}}, nil
}

// parsePath is the vocabulary's — Compile's grammar, one label path —
// refusing a path longer than the covered length k.
func (s *synopsis) parsePath(q string) (paths.Path, error) {
	p, err := s.vocab.parsePath(q)
	if err != nil {
		return nil, err
	}
	if k := s.MaxPathLength(); len(p) > k {
		return nil, fmt.Errorf("%w: %q exceeds covered length %d", ErrPathTooLong, q, k)
	}
	return p, nil
}

// Estimate returns e(ℓ) for a slash-separated label-name path, e.g.
// "knows/likes/knows". The path is read with Compile's grammar, so a
// pattern whose every element is one label taken once — "knows{1}",
// "(likes)", "(knows|knows)" — is that path; any other pattern (an
// alternation, a wildcard, a repetition, an optional label) is
// ErrBadPattern, and Compile is what answers it.
func (s *synopsis) Estimate(q string) (float64, error) {
	p, err := s.parsePath(q)
	if err != nil {
		return 0, err
	}
	return s.ph.Estimate(p), nil
}

// EstimatePrefix answers a prefix wildcard query "p/*": the estimated
// total selectivity of the path and every extension of it up to
// MaxPathLength, answered as one histogram range query. Requires a
// lexicographic ordering (OrderingLexAlph or OrderingLexCard) — the only
// domain layout in which a prefix's extensions are contiguous.
func (s *synopsis) EstimatePrefix(q string) (float64, error) {
	p, err := s.parsePath(q)
	if err != nil {
		return 0, err
	}
	return s.ph.EstimatePrefix(p)
}

// Ordering returns the ordering method in use.
func (s *synopsis) Ordering() string { return s.ph.Ordering().Name() }

// Buckets returns the realized bucket count of the histogram.
func (s *synopsis) Buckets() int { return s.ph.Buckets() }

// DomainSize returns |Lk|, the number of label paths the histogram covers.
func (s *synopsis) DomainSize() int64 { return s.ph.Ordering().Size() }

// MaxPathLength returns the covered length bound k: the longest path
// Estimate accepts, and on an Estimator the longest match Compile accepts.
func (s *synopsis) MaxPathLength() int { return s.ph.Ordering().K() }
