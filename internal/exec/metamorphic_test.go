package exec

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/paths"
)

// paperScaleEnv names the environment variable that turns on the
// paper-scale rows of the metamorphic tests — internal/paths' census rows
// and TestExecutorMetamorphic's scale 0.5 rows — which a scheduled CI job
// runs.
const paperScaleEnv = "CENSUS_PAPER_SCALE"

// TestExecutorMetamorphic checks the executor's reversal relation on every
// Table 3 generator, pair for pair, without a reference engine: Run of ℓ on
// G equals the transpose of Run of reverse ℓ on rev(G), where rev(G) has
// the edge v -l-> u for each u -l-> v, and ℓ read backwards reverses its
// elements. It holds for any plan on either side, so each side is planned
// on its own:
//
//   - every zig-zag start of sampled concrete paths, against the mirrored
//     start of the reverse path — a leftward step on one side is a
//     rightward one on the other;
//   - the plan tree a random estimator picks for each path and for its
//     reverse;
//   - sampled RPQs with their element order reversed, under a zero and a
//     random estimator: an optional element after a prefix is a skip term
//     on one side and an ε term on the other.
//
// A leftward step that joins its two sides in the wrong order, or a join
// node that drops its skip term, breaks it. Rows run at scale 0.1, k = 3,
// and — with paperScaleEnv set — at scale 0.5, k = 3, one parallel subtest
// per (row, dataset).
func TestExecutorMetamorphic(t *testing.T) {
	rows := []struct {
		scale float64
		k     int
		paper bool
	}{{0.1, 3, false}, {0.5, 3, true}}
	for _, row := range rows {
		for i, spec := range dataset.Table3() {
			t.Run(fmt.Sprintf("scale=%.1f/k=%d/%s", row.scale, row.k, spec.Name), func(t *testing.T) {
				if row.paper && os.Getenv(paperScaleEnv) == "" {
					t.Skipf("paper-scale row: set %s=1 to run it", paperScaleEnv)
				}
				t.Parallel()
				checkReversal(t, dataset.Generate(spec, row.scale, int64(20+i)), row.k, int64(40+i))
			})
		}
	}
}

// reversalSamples is how many concrete paths per length, and how many
// RPQs, checkReversal draws.
const reversalSamples = 6

// checkReversal draws non-empty concrete paths of lengths 2 to k+1 and
// RPQs of up to k elements from seed, runs each on g and its reverse on
// rev(g) at one worker, and fails on every pair of runs whose relations
// are not each other's transpose.
func checkReversal(t *testing.T, g *graph.Graph, k int, seed int64) {
	n, nl := g.NumVertices(), g.NumLabels()
	rev := graph.New(n, nl)
	for _, e := range g.Edges() {
		rev.AddEdge(e.Dst, e.Label, e.Src)
	}
	fwd, bwd := g.Freeze(), rev.Freeze()
	rng := rand.New(rand.NewSource(seed))
	pl := randomPlanner(seed, 0)
	check := func(what string, p, r *DagPlan) {
		t.Helper()
		a, b := reversalRun(t, fwd, p), reversalRun(t, bwd, r)
		if !transposed(a, b) {
			t.Errorf("%s: %s on G gives %d pairs, the transpose of %s on rev(G) %d",
				what, p.Describe(), a.Pairs(), r.Describe(), b.Pairs())
		}
	}
	joins := 0
	for length := 2; length <= k+1; length++ {
		for _, p := range nonEmptyPaths(t, fwd, rng, length, reversalSamples) {
			r := slices.Clone(p)
			slices.Reverse(r)
			for s := range p {
				check(fmt.Sprintf("path %v start %d", p, s), startPlan(p, s), startPlan(r, length-1-s))
			}
			bp, br := pl.Plan(PathDag(p), n), pl.Plan(PathDag(r), n)
			if !bp.Tree.IsLeaf() {
				joins++
			}
			check(fmt.Sprintf("path %v planned", p), bp, br)
		}
	}
	if joins == 0 {
		t.Errorf("no sampled path was planned as a join: the join nodes went unchecked")
	}
	for i := 0; i < reversalSamples; i++ {
		d := randomRPQ(rng, nl, 2+rng.Intn(k-1))
		r := &RPQDag{Elems: slices.Clone(d.Elems)}
		slices.Reverse(r.Elems)
		check("rpq "+d.Describe(), zeroPlan(fwd, d), zeroPlan(bwd, r))
		check("planned rpq "+d.Describe(), pl.Plan(d, n), pl.Plan(r, n))
	}
}

// reversalRun runs a plan that must survive at one worker, keeping its
// result.
func reversalRun(t *testing.T, g *graph.CSR, dp *DagPlan) *bitset.HybridRelation {
	t.Helper()
	rel, _, err := Run(g, dp, Options{Workers: 1, KeepResult: true})
	if err != nil {
		t.Fatalf("%s: %v", dp.Describe(), err)
	}
	return rel
}

// transposed reports whether b holds exactly the pairs (t, s) of a's pairs
// (s, t).
func transposed(a, b *bitset.HybridRelation) bool {
	if a.Pairs() != b.Pairs() {
		return false
	}
	var pa, pb [][2]int
	a.ForEachPair(func(s, t int) bool { pa = append(pa, [2]int{s, t}); return true })
	b.ForEachPair(func(s, t int) bool { pb = append(pb, [2]int{t, s}); return true })
	byPair := func(x, y [2]int) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) }
	slices.SortFunc(pa, byPair)
	slices.SortFunc(pb, byPair)
	return slices.Equal(pa, pb)
}

// nonEmptyPaths draws up to want distinct-by-draw label paths of the given
// length whose relation on g is not empty, giving up after a bounded
// number of draws.
func nonEmptyPaths(t *testing.T, g *graph.CSR, rng *rand.Rand, length, want int) []paths.Path {
	var out []paths.Path
	for tries := 0; len(out) < want && tries < 50*want; tries++ {
		p := randomPath(rng, length, g.NumLabels())
		if _, st, err := Run(g, startPlan(p, 0), Options{Workers: 1}); err != nil {
			t.Fatal(err)
		} else if st.Result > 0 {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no non-empty path of length %d in %d draws", length, 50*want)
	}
	return out
}

// randomRPQ draws a query of elems elements over labels labels, each a
// plain label, an alternation, an optional label or alternation, or a
// bounded repetition, skippable or not; a draw whose every element is
// optional is drawn again.
func randomRPQ(rng *rand.Rand, labels, elems int) *RPQDag {
	for {
		d := &RPQDag{}
		for range elems {
			ls := []int{rng.Intn(labels)}
			if other := rng.Intn(labels); rng.Intn(2) == 0 && other != ls[0] {
				ls = append(ls, other)
				slices.Sort(ls)
			}
			bounds := [][2]int{{1, 1}, {1, 1}, {0, 1}, {0, 2}, {1, 2}, {2, 2}}[rng.Intn(6)]
			d.Elems = append(d.Elems, RPQElem{Labels: ls, MinRep: bounds[0], MaxRep: bounds[1]})
		}
		if d.MinLen() > 0 {
			return d
		}
	}
}
