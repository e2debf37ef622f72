package pathsel

import "repro/internal/paths"

// TruePatternSelectivity evaluates a pattern exactly under set semantics:
// the number of distinct vertex pairs connected by at least one matching
// path. It enumerates the pattern's concrete expansions (bounded by
// exec.MaxExpansions) — the ground-truth oracle the DAG execution path
// is pinned bit-identical to.
func (gr *Graph) TruePatternSelectivity(pattern string) (int64, error) {
	ps, err := gr.patternExpansions(pattern)
	if err != nil {
		return 0, err
	}
	return paths.UnionSelectivity(gr.csr(), ps), nil
}

// TruePatternBagSelectivity evaluates a pattern exactly under bag
// semantics (the sum of the distinct expansions' selectivities) — the
// quantity Expr.Estimate approximates.
func (gr *Graph) TruePatternBagSelectivity(pattern string) (int64, error) {
	ps, err := gr.patternExpansions(pattern)
	if err != nil {
		return 0, err
	}
	var total int64
	csr := gr.csr()
	for _, p := range ps {
		total += paths.Selectivity(csr, p)
	}
	return total, nil
}
