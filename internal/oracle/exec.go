package oracle

import (
	"fmt"

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

// Stats is what the dense executor reports about one execution: the
// fields of exec.Stats a dense run can fill, under the same meanings.
// The oracle cannot name exec.Stats — internal/exec's own tests import
// this package.
type Stats struct {
	// Intermediates holds the distinct-pair count of every relation
	// entering a join step, in step order.
	Intermediates []int64
	// Work is Σ Intermediates.
	Work int64
	// Result is |ℓ(G)|.
	Result int64
}

// EdgeRelation returns label l's edge set as a dense Relation (the set of
// pairs (s, t) with (s, l, t) ∈ E) — the length-1 path relation.
func EdgeRelation(g *graph.CSR, l int) *Relation {
	r := NewRelation(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		for _, t := range g.Successors(v, l) {
			r.Add(v, int(t))
		}
	}
	return r
}

// SuccessorSets returns label l's successor sets, the table Compose takes:
// set t holds every u with (t, l, u) ∈ E, nil for a vertex with none. They
// are EdgeRelation's rows, built from the CSR on every call; the graph
// keeps no such table.
func SuccessorSets(g *graph.CSR, l int) []*Set { return EdgeRelation(g, l).rows }

// ExecuteDense is the retired dense-only executor, kept solely as the
// reference implementation: equivalence tests pin exec.Run bit-identical
// to it. It supports only the two endpoint plans and allocates a fresh
// dense Relation per join step.
func ExecuteDense(g *graph.CSR, p paths.Path, dir Direction) (*Relation, Stats) {
	if len(p) == 0 {
		panic("oracle: empty path query")
	}
	var st Stats
	var rel *Relation
	switch dir {
	case Forward:
		rel = EdgeRelation(g, p[0])
		for _, l := range p[1:] {
			st.Intermediates = append(st.Intermediates, rel.Pairs())
			rel = rel.Compose(SuccessorSets(g, l))
		}
	case Backward:
		// Build the suffix relation reversed (target → source) so each
		// prepend step is a composition with predecessor sets — the
		// reversed edge relation's rows; un-reverse at the end.
		rev := EdgeRelation(g, p[len(p)-1]).Reverse()
		for i := len(p) - 2; i >= 0; i-- {
			st.Intermediates = append(st.Intermediates, rev.Pairs())
			rev = rev.Compose(EdgeRelation(g, p[i]).Reverse().rows)
		}
		rel = rev.Reverse()
	default:
		panic(fmt.Sprintf("oracle: unknown direction %d", int(dir)))
	}
	for _, n := range st.Intermediates {
		st.Work += n
	}
	st.Result = rel.Pairs()
	return rel, st
}

// EvaluateDense returns ℓ(G) as a dense relation — the forward execution
// without its statistics, the reference paths.Evaluate is pinned against.
func EvaluateDense(g *graph.CSR, p paths.Path) *Relation {
	rel, _ := ExecuteDense(g, p, Forward)
	return rel
}
