package main

import (
	"bytes"
	"fmt"

	"repro/pathsel"
)

// fillOracle computes, once per distinct pool entry, the answer every
// timed operation must reproduce. Execute and serve workloads get the
// exact selectivity: the build-time census for a concrete path, the
// expansion-union evaluation of the graph for an RPQ. The estimate
// workload has no exact answer to reproduce; its reference is the
// estimate itself, which for a concrete path must also equal what the
// saved-and-reloaded synopsis returns.
func fillOracle(s *system) error {
	if s.sp.kind != kindEstimate {
		for i := range s.pool {
			e := &s.pool[i]
			var err error
			if e.path != nil {
				e.want, err = s.est.TrueSelectivity(e.query)
			} else {
				e.want, err = s.graph.TruePatternSelectivity(e.query)
			}
			if err != nil {
				return fmt.Errorf("oracle %q: %w", e.query, err)
			}
		}
		return nil
	}
	var buf bytes.Buffer
	if err := s.est.Save(&buf); err != nil {
		return err
	}
	loaded, err := pathsel.LoadEstimator(&buf)
	if err != nil {
		return err
	}
	for i := range s.pool {
		e := &s.pool[i]
		x, err := s.est.Compile(e.query)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", e.query, err)
		}
		e.est = x.Estimate()
		if e.path == nil {
			continue
		}
		v, err := loaded.Estimate(e.query)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", e.query, err)
		}
		if v != e.est {
			return fmt.Errorf("oracle %q: estimate %v, reloaded synopsis says %v", e.query, e.est, v)
		}
	}
	return nil
}
