package paths_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	. "repro/internal/paths"
)

// TestCensusMetamorphic checks two relations the census must keep on every
// Table 3 generator, path by path, without a reference engine:
//
//   - reversal: f_G(ℓ) = f_rev(G)(reverse ℓ), where rev(G) has the edge
//     v -l-> u for each u -l-> v — a pair (u, w) joined by ℓ in G is the
//     pair (w, u) joined by ℓ read backwards in rev(G);
//   - renaming: f_G(ℓ) = f_πG(πℓ), under a seeded random permutation π of
//     the vertices and of the labels — the count of a path does not
//     depend on what its vertices and labels are called.
//
// A census that loses a vertex's row or a label's subtree breaks both,
// since the lost pairs start at another vertex, or end under another
// label, in the transformed graph.
func TestCensusMetamorphic(t *testing.T) {
	const k = 3
	opt := CensusOptions{Workers: 1}
	for i, spec := range dataset.Table3() {
		t.Run(spec.Name, func(t *testing.T) {
			g := dataset.Generate(spec, 0.1, int64(20+i))
			n, nl := g.NumVertices(), g.NumLabels()
			rng := rand.New(rand.NewSource(int64(30 + i)))
			pv, pl := rng.Perm(n), rng.Perm(nl)
			rev, perm := graph.New(n, nl), graph.New(n, nl)
			for _, e := range g.Edges() {
				rev.AddEdge(e.Dst, e.Label, e.Src)
				perm.AddEdge(pv[e.Src], pl[e.Label], pv[e.Dst])
			}
			c := NewCensusHybrid(g.Freeze(), k, opt)
			cRev := NewCensusHybrid(rev.Freeze(), k, opt)
			cPerm := NewCensusHybrid(perm.Freeze(), k, opt)
			mismatches := 0
			c.ForEach(func(p Path, f int64) bool {
				r := slices.Clone(p)
				slices.Reverse(r)
				q := make(Path, len(p))
				for j, l := range p {
					q[j] = pl[l]
				}
				fr, fp := cRev.Selectivity(r), cPerm.Selectivity(q)
				if fr != f || fp != f {
					mismatches++
					if mismatches <= 5 {
						t.Errorf("f(%s) = %d, but f_rev(%s) = %d and f_π(%s) = %d",
							p.Key(), f, r.Key(), fr, q.Key(), fp)
					}
				}
				return true
			})
			if mismatches > 0 {
				t.Fatalf("%d of %d paths break a relation", mismatches, c.Size())
			}
		})
	}
}
