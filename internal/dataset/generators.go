// Package dataset provides the data substrate of the reproduction: loaders
// and writers for edge-list files, and deterministic synthetic generators
// for the four evaluation datasets of Table 3. In the layer map (graph →
// bitset → paths → exec → pathsel) it sits beside internal/graph,
// producing the graphs every layer above evaluates.
//
// The two real-world datasets of the paper (Moreno Health from Konect and a
// DBpedia subgraph) are not redistributable/downloadable in this offline
// environment. They are substituted with generators from
// the same family of graphs: scale-free preferential-attachment digraphs
// with skewed, degree-correlated edge labels, matching the published
// |V|/|E|/|L| counts. The two synthetic datasets (SNAP-ER and SNAP-FF) are
// direct reimplementations of their generative models.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// LabelModel chooses the label of a generated edge.
type LabelModel interface {
	// Label returns a label in [0, numLabels) for an edge src→dst. The
	// model may use endpoint degrees to correlate labels with topology.
	Label(rng *rand.Rand, src, dst, srcOutDeg, dstInDeg int) int
	// NumLabels returns the size of the label alphabet.
	NumLabels() int
}

// UniformLabels assigns labels uniformly at random — the model of the
// paper's purely synthetic datasets (SNAP-ER, SNAP-FF), whose label
// cardinalities are near-equal and uncorrelated.
type UniformLabels struct{ L int }

// Label implements LabelModel.
func (u UniformLabels) Label(rng *rand.Rand, _, _, _, _ int) int { return rng.Intn(u.L) }

// NumLabels implements LabelModel.
func (u UniformLabels) NumLabels() int { return u.L }

// ZipfLabels assigns labels with Zipf-distributed frequency, f(l) ∝
// 1/(rank+1)^S, independent of topology. Real graph datasets have highly
// skewed label cardinalities; this is the simplest model of that fact.
type ZipfLabels struct {
	L int
	S float64 // skew exponent; 0 degenerates to uniform

	cdf []float64
}

// NewZipfLabels builds a ZipfLabels model over l labels with exponent s.
func NewZipfLabels(l int, s float64) *ZipfLabels {
	if l <= 0 {
		panic(fmt.Sprintf("dataset: non-positive label count %d", l))
	}
	z := &ZipfLabels{L: l, S: s, cdf: make([]float64, l)}
	total := 0.0
	for i := 0; i < l; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

// Label implements LabelModel.
func (z *ZipfLabels) Label(rng *rand.Rand, _, _, _, _ int) int {
	u := rng.Float64()
	for i, c := range z.cdf {
		if u <= c {
			return i
		}
	}
	return z.L - 1
}

// NumLabels implements LabelModel.
func (z *ZipfLabels) NumLabels() int { return z.L }

// CorrelatedLabels couples label choice to endpoint degree: high-degree
// (hub) endpoints preferentially receive low-rank (frequent) labels. This
// reproduces the "edge-label cardinality correlations in real-life data"
// that §4 of the paper credits for the smaller accuracy gap on real
// datasets: paths through hubs repeat the same frequent labels, so label
// frequency becomes predictive of path frequency.
type CorrelatedLabels struct {
	Zipf *ZipfLabels
	// Coupling in [0,1]: 0 = pure Zipf, 1 = fully degree-driven.
	Coupling float64
}

// Label implements LabelModel.
func (c *CorrelatedLabels) Label(rng *rand.Rand, src, dst, srcOut, dstIn int) int {
	if rng.Float64() >= c.Coupling {
		return c.Zipf.Label(rng, src, dst, srcOut, dstIn)
	}
	// Map combined endpoint degree to a label rank: hubs → rank 0.
	deg := srcOut + dstIn
	// Smooth, deterministic-in-expectation bucketing of log-degree.
	rank := int(float64(c.Zipf.L) / (1 + math.Log1p(float64(deg))))
	if rank >= c.Zipf.L {
		rank = c.Zipf.L - 1
	}
	if rank < 0 {
		rank = 0
	}
	// Jitter by ±1 to avoid hard label boundaries.
	switch rng.Intn(3) {
	case 0:
		if rank > 0 {
			rank--
		}
	case 2:
		if rank < c.Zipf.L-1 {
			rank++
		}
	}
	return rank
}

// NumLabels implements LabelModel.
func (c *CorrelatedLabels) NumLabels() int { return c.Zipf.L }

// ErdosRenyi generates a directed G(n, m) graph: m distinct labeled edges
// chosen uniformly among all (src, label, dst) triples. Deterministic for a
// given seed.
func ErdosRenyi(n, m int, labels LabelModel, seed int64) *graph.Graph {
	if m > n*n*labels.NumLabels() {
		panic(fmt.Sprintf("dataset: cannot place %d distinct edges in %d slots", m, n*n*labels.NumLabels()))
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, labels.NumLabels())
	for g.NumEdges() < m {
		src, dst := rng.Intn(n), rng.Intn(n)
		l := labels.Label(rng, src, dst, 0, 0)
		g.AddEdge(src, l, dst)
	}
	return g
}

// PreferentialAttachment generates a directed scale-free graph by degree-
// biased endpoint selection (a labeled variant of the Bollobás et al.
// directed PA model): each new edge picks its source proportional to
// out-degree+1 and its target proportional to in-degree+1, then asks the
// label model for a label (which may observe those degrees). The generator
// is used to emulate the two real-world datasets of Table 3.
func PreferentialAttachment(n, m int, labels LabelModel, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, labels.NumLabels())
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	// Repeated-endpoint urns: vertex v appears outDeg[v] extra times.
	srcUrn := make([]int, 0, n+m)
	dstUrn := make([]int, 0, n+m)
	for v := 0; v < n; v++ {
		srcUrn = append(srcUrn, v)
		dstUrn = append(dstUrn, v)
	}
	attempts := 0
	maxAttempts := 50 * m
	for g.NumEdges() < m && attempts < maxAttempts {
		attempts++
		src := srcUrn[rng.Intn(len(srcUrn))]
		dst := dstUrn[rng.Intn(len(dstUrn))]
		l := labels.Label(rng, src, dst, outDeg[src], inDeg[dst])
		if g.AddEdge(src, l, dst) {
			outDeg[src]++
			inDeg[dst]++
			srcUrn = append(srcUrn, src)
			dstUrn = append(dstUrn, dst)
		}
	}
	if g.NumEdges() < m {
		// Dense corner: fill remaining edges uniformly.
		for g.NumEdges() < m {
			src, dst := rng.Intn(n), rng.Intn(n)
			l := labels.Label(rng, src, dst, outDeg[src], inDeg[dst])
			if g.AddEdge(src, l, dst) {
				outDeg[src]++
				inDeg[dst]++
			}
		}
	}
	return g
}

// ForestFire generates a directed graph with the Leskovec et al. forest-
// fire model: each new vertex picks an ambassador, then "burns" through the
// ambassador's neighborhood with forward probability fwd and backward
// factor bwd, linking to every burned vertex. Labels come from the label
// model. The process stops adding burn edges per vertex once the target
// total edge budget m is exhausted, so published |E| counts can be matched
// exactly.
func ForestFire(n, m int, fwd, bwd float64, labels LabelModel, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, labels.NumLabels())
	out := make([][]int, n) // unlabeled forward adjacency for burning
	in := make([][]int, n)

	link := func(src, dst int) bool {
		l := labels.Label(rng, src, dst, len(out[src]), len(in[dst]))
		if g.AddEdge(src, l, dst) {
			out[src] = append(out[src], dst)
			in[dst] = append(in[dst], src)
			return true
		}
		return false
	}

	for v := 1; v < n && g.NumEdges() < m; v++ {
		ambassador := rng.Intn(v)
		link(v, ambassador)
		// Burn outward from the ambassador (geometric fan-out).
		visited := map[int]bool{v: true, ambassador: true}
		frontier := []int{ambassador}
		for len(frontier) > 0 && g.NumEdges() < m {
			cur := frontier[0]
			frontier = frontier[1:]
			nf := geometric(rng, fwd)
			nb := int(float64(geometric(rng, fwd)) * bwd)
			burn := pickDistinct(rng, out[cur], nf, visited)
			burn = append(burn, pickDistinct(rng, in[cur], nb, visited)...)
			for _, b := range burn {
				visited[b] = true
				link(v, b)
				frontier = append(frontier, b)
			}
		}
	}
	// Forest fire under-generates on sparse targets; top up uniformly to
	// reach the published edge count (same trick SNAP itself documents for
	// matching dataset sizes).
	for g.NumEdges() < m {
		src, dst := rng.Intn(n), rng.Intn(n)
		link(src, dst)
	}
	return g
}

// geometric samples the number of successes before failure with success
// probability p (mean p/(1-p)), capped to avoid pathological burns.
func geometric(rng *rand.Rand, p float64) int {
	n := 0
	for n < 16 && rng.Float64() < p {
		n++
	}
	return n
}

// pickDistinct selects up to n unvisited members of candidates, without
// replacement.
func pickDistinct(rng *rand.Rand, candidates []int, n int, visited map[int]bool) []int {
	if n <= 0 || len(candidates) == 0 {
		return nil
	}
	perm := rng.Perm(len(candidates))
	var out []int
	for _, i := range perm {
		c := candidates[i]
		if visited[c] {
			continue
		}
		out = append(out, c)
		if len(out) == n {
			break
		}
	}
	return out
}
