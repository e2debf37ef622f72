package exec

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/paths"
)

// Direction is one of the two endpoint join orders of a path query — the
// whole plan space of the dense reference executor.
type Direction int

// Join directions.
const (
	// Forward evaluates l1, l1/l2, … building prefixes left-to-right.
	Forward Direction = iota
	// Backward evaluates lk, l(k-1)/lk, … building suffixes right-to-left.
	Backward
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// ExecuteDense is the retired dense-only executor, kept solely as the
// reference implementation: equivalence tests pin the hybrid engine
// bit-identical to it, and the perf bench measures the hybrid engine's
// speedup against it. It supports only the two endpoint plans and
// allocates a fresh dense bitset.Relation per join step. Production
// callers use Run.
func ExecuteDense(g *graph.CSR, p paths.Path, dir Direction) (*bitset.Relation, Stats) {
	if len(p) == 0 {
		panic("exec: empty path query")
	}
	var st Stats
	var rel *bitset.Relation
	switch dir {
	case Forward:
		rel = g.EdgeRelation(p[0])
		for _, l := range p[1:] {
			st.Intermediates = append(st.Intermediates, rel.Pairs())
			rel = rel.Compose(g.SuccessorSets(l))
		}
	case Backward:
		// Build the suffix relation reversed (target → source) so each
		// prepend step is a composition with predecessor sets; un-reverse
		// at the end.
		rev := g.EdgeRelation(p[len(p)-1]).Reverse()
		for i := len(p) - 2; i >= 0; i-- {
			st.Intermediates = append(st.Intermediates, rev.Pairs())
			rev = rev.Compose(g.PredecessorSets(p[i]))
		}
		rel = rev.Reverse()
	default:
		panic(fmt.Sprintf("exec: unknown direction %d", int(dir)))
	}
	for _, n := range st.Intermediates {
		st.Work += n
	}
	st.Result = rel.Pairs()
	return rel, st
}
