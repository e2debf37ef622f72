package pathsel

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// TestEstimatorMetamorphic checks two relations a built estimator must
// keep, without a reference, on every Table 3 generator at scale 0.1 and
// k = 3, for every paper ordering under V-optimal with β = |L₃|/16:
//
//   - vertex renaming: under a seeded random permutation of the vertices
//     the synopsis is the same — Save writes the same bytes — since no
//     ordering, count or bucket depends on what a vertex is called;
//   - label renaming: under a seeded random permutation of the label ids
//     that carries each name along, every estimate asked by name is
//     bit-identical, and every path sits at the same domain position. The
//     alph orderings rank labels by name; the card orderings and
//     sum-based rank by frequency and break a tie by name
//     (ordering.CardinalityRanking), so it holds for every ordering. The
//     Table 3 graphs have no tie at this scale, so a hand-built graph
//     whose permutation swaps two tied labels' ids is the last row.
//
// A census that loses a vertex's row breaks the first relation (after
// renaming, the row is another vertex's); a ranking that reads label ids
// where it should read names — an alph order, or a card tie — breaks the
// second.
func TestEstimatorMetamorphic(t *testing.T) {
	const k = 3
	for i, spec := range dataset.Table3() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			g := dataset.Generate(spec, 0.1, int64(40+i))
			rng := rand.New(rand.NewSource(int64(50 + i)))
			checkEstimatorMetamorphic(t, g, k, rng.Perm(g.NumVertices()), rng.Perm(g.NumLabels()))
		})
	}
	t.Run("tied labels", func(t *testing.T) {
		t.Parallel()
		// x and y label 40 edges each, z 70; the permutation swaps x's and
		// y's ids.
		const n = 30
		g := graph.New(n, 3)
		for l, name := range []string{"x", "y", "z"} {
			g.SetLabelName(l, name)
		}
		rng := rand.New(rand.NewSource(9))
		for l, count := range []int{40, 40, 70} {
			for added := 0; added < count; {
				if g.AddEdge(rng.Intn(n), l, rng.Intn(n)) {
					added++
				}
			}
		}
		checkEstimatorMetamorphic(t, g, k, rng.Perm(n), []int{1, 0, 2})
	})
}

// checkEstimatorMetamorphic builds g, its vertex renaming by pv and its
// label renaming by pl (names carried along) into estimators at length k,
// one per paper ordering, and fails where a relation breaks.
func checkEstimatorMetamorphic(t *testing.T, g *graph.Graph, k int, pv, pl []int) {
	t.Helper()
	n, nl := g.NumVertices(), g.NumLabels()
	names := make([]string, nl)
	for l := range names {
		names[l] = g.LabelName(l)
	}
	gv, gl := graph.New(n, nl), graph.New(n, nl)
	for l, name := range names {
		gv.SetLabelName(l, name)
		gl.SetLabelName(pl[l], name)
	}
	for _, e := range g.Edges() {
		gv.AddEdge(pv[e.Src], e.Label, pv[e.Dst])
		gl.AddEdge(e.Src, pl[e.Label], e.Dst)
	}
	var graphs [3]*Graph
	for i, h := range []*graph.Graph{g, gv, gl} {
		var err error
		if graphs[i], err = newGraph(h); err != nil {
			t.Fatal(err)
		}
	}
	queries := labelPaths(names, k)
	for _, method := range Orderings() {
		cfg := Config{MaxPathLength: k, Ordering: method, Buckets: len(queries) / 16, Workers: 1}
		var est [3]*Estimator
		for i, gr := range graphs {
			var err error
			if est[i], err = Build(gr, cfg); err != nil {
				t.Fatal(err)
			}
		}
		var blob, blobV bytes.Buffer
		if err := est[0].Save(&blob); err != nil {
			t.Fatal(err)
		}
		if err := est[1].Save(&blobV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob.Bytes(), blobV.Bytes()) {
			t.Errorf("%s: renaming the vertices changed the saved synopsis (%d → %d bytes)", method, blob.Len(), blobV.Len())
		}
		// moved counts the paths whose domain position or estimate, asked
		// by name, the label renaming changed.
		moved := 0
		for _, q := range queries {
			var at [2]int64
			var answer [2]float64
			for i, e := range []*Estimator{est[0], est[2]} {
				p, err := e.parsePath(q)
				if err != nil {
					t.Fatal(err)
				}
				at[i], answer[i] = e.ph.Ordering().Index(p), e.ph.Estimate(p)
			}
			if at[0] != at[1] || answer[0] != answer[1] {
				if moved++; moved <= 3 {
					t.Errorf("%s: %s sits at %d with estimate %v, at %d with %v after renaming the labels",
						method, q, at[0], answer[0], at[1], answer[1])
				}
			}
		}
		if moved > 0 {
			t.Errorf("%s: %d of %d paths moved when the labels were renamed", method, moved, len(queries))
		}
	}
}
