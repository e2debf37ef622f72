package paths_test

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	. "repro/internal/paths"
)

// paperScaleEnv names the environment variable that turns on
// TestCensusMetamorphic's paper-scale rows (scale 1.0 at k = 3, scale 0.5 at
// k = 4), tens of seconds of censuses that a scheduled CI job runs.
const paperScaleEnv = "CENSUS_PAPER_SCALE"

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
// label, in the transformed graph; so does a leaf count credited to the
// wrong label or missing a stride's last word. Rows run at scale 0.1 and
// 0.5, k = 3, and — with paperScaleEnv set — at the paper's scale, one
// parallel subtest per (row, dataset).
func TestCensusMetamorphic(t *testing.T) {
	rows := []struct {
		scale float64
		k     int
		paper bool
	}{{0.1, 3, false}, {0.5, 3, false}, {1.0, 3, true}, {0.5, 4, true}}
	for _, row := range rows {
		for i, spec := range dataset.Table3() {
			t.Run(fmt.Sprintf("scale=%.1f/k=%d/%s", row.scale, row.k, spec.Name), func(t *testing.T) {
				if row.paper && os.Getenv(paperScaleEnv) == "" {
					t.Skipf("paper-scale row: set %s=1 to run it", paperScaleEnv)
				}
				t.Parallel()
				checkMetamorphic(t, dataset.Generate(spec, row.scale, int64(20+i)), row.k, int64(30+i))
			})
		}
	}
}

// checkMetamorphic counts the censuses of g, rev(g) and πg to length k at
// one worker, π drawn from seed, and fails on every path whose three
// counts break a relation.
func checkMetamorphic(t *testing.T, g *graph.Graph, k int, seed int64) {
	opt := CensusOptions{Workers: 1}
	n, nl := g.NumVertices(), g.NumLabels()
	rng := rand.New(rand.NewSource(seed))
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
}
