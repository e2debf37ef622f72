package pathsel

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/paths"
)

// Save serializes the estimator's synopsis — label vocabulary, ordering
// method, ranking, and bucket list — as a compact versioned binary blob.
// The build-time ground truth (the census) is deliberately *not* saved:
// the whole point of the histogram is that estimation needs only the
// synopsis. Load the result with LoadEstimator.
//
// Only the five paper ordering methods with serial histograms are
// serializable.
func (e *Estimator) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(e.names)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	for _, l := range e.names {
		n = binary.PutUvarint(buf[:], uint64(len(l)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		if _, err := bw.WriteString(l); err != nil {
			return err
		}
	}
	if err := e.ph.Encode(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// synopsis is the estimator the paper describes — a label vocabulary, a
// domain ordering and β buckets — and answers by label-name path without
// the graph or the census. CompactEstimator is one; an Estimator is one
// plus the CSR it was built on and the build-time census.
type synopsis struct {
	vocab
	ph *core.PathHistogram
}

// CompactEstimator is a loaded synopsis: it answers Estimate and
// EstimatePrefix queries by label-name path without the original graph or
// ground truth (so there is no Evaluate or TrueSelectivity — those need
// the census that only exists at build time).
type CompactEstimator struct{ synopsis }

// LoadEstimator reads a synopsis written by Estimator.Save.
func LoadEstimator(r io.Reader) (*CompactEstimator, error) {
	br := bufio.NewReader(r)
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: reading label count: %w", ErrBadSnapshot, err)
	}
	if count == 0 || count > 1<<16 {
		return nil, fmt.Errorf("%w: implausible label count %d", ErrBadSnapshot, count)
	}
	ce := &CompactEstimator{synopsis{vocab: vocab{ids: make(map[string]int, count)}}}
	for i := 0; i < int(count); i++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		if n > 1<<12 {
			return nil, fmt.Errorf("%w: implausible label length %d", ErrBadSnapshot, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		name := string(b)
		if _, dup := ce.ids[name]; dup {
			return nil, fmt.Errorf("%w: duplicate label %q", ErrBadSnapshot, name)
		}
		ce.ids[name] = i
		ce.names = append(ce.names, name)
	}
	ph, err := core.ReadPathHistogram(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if ph.Ordering().NumLabels() != int(count) {
		return nil, fmt.Errorf("%w: vocabulary size %d disagrees with ordering (%d labels)",
			ErrBadSnapshot, count, ph.Ordering().NumLabels())
	}
	ce.ph = ph
	return ce, nil
}

// parsePath is the vocabulary's, refusing a path longer than the covered
// length k.
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
// "knows/likes/knows".
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

// MaxPathLength returns the covered length bound k: the longest path
// Estimate accepts, and on an Estimator the longest match Compile accepts.
func (s *synopsis) MaxPathLength() int { return s.ph.Ordering().K() }
