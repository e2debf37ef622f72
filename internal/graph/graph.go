// Package graph is the bottom layer of the reproduction (graph → bitset →
// paths → exec → pathsel): the directed edge-labeled multigraph
// G = (V, L, E) with E ⊆ V × L × V. It provides a mutable builder and an
// immutable, concurrency-safe CSR (compressed sparse row) form — Freeze
// and Thaw turn one into the other — and the CSR is all the engines above
// it read: per label, in the one shape every
// step kernel consumes (bitset.CSROperand), in O(|L|·|V| + |E|) memory —
// one |V|+1 offset array per label.
//
//   - LabelOperand: forward adjacency, built at Freeze — the census and
//     every step of execution. A label's relation is read in place: the
//     left rows of a leaf's first step and of every leftward step, and the
//     operands of a label-set base, list their non-empty rows
//     (CSROperand.Active), so such a step visits and shards those alone,
//     without a pass.
//   - PredecessorOperand: reversed adjacency, built on first use behind a
//     sync.Once. Every relation an execution builds is forward, so nothing
//     but the benchmark module reads it.
//
// The graph keeps no |V|-bit tables: the test-only dense reference
// (internal/oracle) builds its own sets from Successors.
package graph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
)

// Edge is one directed labeled edge (Src --Label--> Dst).
type Edge struct {
	Src   int
	Label int
	Dst   int
}

// Graph is a mutable directed edge-labeled graph. Vertices are dense
// integers [0, NumVertices) and labels are dense integers [0, NumLabels).
// Duplicate (src, label, dst) triples are ignored: E is a set, matching the
// paper's definition.
type Graph struct {
	numVertices int
	numLabels   int
	labelNames  []string
	edges       map[Edge]struct{}
}

// New returns an empty graph with the given number of vertices and labels.
// Labels receive default names "1", "2", … matching the paper's Moreno
// Health convention; use SetLabelName to override.
func New(numVertices, numLabels int) *Graph {
	if numVertices < 0 || numLabels < 0 {
		panic(fmt.Sprintf("graph: negative size (%d vertices, %d labels)", numVertices, numLabels))
	}
	names := make([]string, numLabels)
	for i := range names {
		names[i] = fmt.Sprintf("%d", i+1)
	}
	return &Graph{
		numVertices: numVertices,
		numLabels:   numLabels,
		labelNames:  names,
		edges:       make(map[Edge]struct{}),
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumLabels returns |L|.
func (g *Graph) NumLabels() int { return g.numLabels }

// NumEdges returns |E| (distinct labeled edges).
func (g *Graph) NumEdges() int { return len(g.edges) }

// LabelName returns the display name of label l.
func (g *Graph) LabelName(l int) string {
	g.checkLabel(l)
	return g.labelNames[l]
}

// SetLabelName overrides the display name of label l.
func (g *Graph) SetLabelName(l int, name string) {
	g.checkLabel(l)
	g.labelNames[l] = name
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.numVertices {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.numVertices))
	}
}

func (g *Graph) checkLabel(l int) {
	if l < 0 || l >= g.numLabels {
		panic(fmt.Sprintf("graph: label %d out of range [0,%d)", l, g.numLabels))
	}
}

// AddEdge inserts the edge (src, label, dst). It reports whether the edge
// was new. Self-loops are allowed; duplicates are not stored twice.
func (g *Graph) AddEdge(src, label, dst int) bool {
	g.checkVertex(src)
	g.checkVertex(dst)
	g.checkLabel(label)
	e := Edge{Src: src, Label: label, Dst: dst}
	if _, ok := g.edges[e]; ok {
		return false
	}
	g.edges[e] = struct{}{}
	return true
}

// Edges returns all edges sorted by (label, src, dst). The slice is a copy.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return out
}

// Freeze converts the graph into its immutable CSR form used by the
// selectivity engine.
func (g *Graph) Freeze() *CSR {
	edges := g.Edges()
	c := &CSR{
		numVertices: g.numVertices,
		numLabels:   g.numLabels,
		labelNames:  append([]string(nil), g.labelNames...),
		numEdges:    len(edges),
		offsets:     make([][]int32, g.numLabels),
		targets:     make([][]int32, g.numLabels),
		roffsets:    make([][]int32, g.numLabels),
		rtargets:    make([][]int32, g.numLabels),
		active:      make([][]int32, g.numLabels),
		ractive:     make([][]int32, g.numLabels),
		revOnce:     make([]sync.Once, g.numLabels),
	}
	for l := 0; l < g.numLabels; l++ {
		c.offsets[l] = make([]int32, g.numVertices+1)
	}
	// Count per (label, src), then prefix-sum into offsets.
	for _, e := range edges {
		c.offsets[e.Label][e.Src+1]++
	}
	for l := 0; l < g.numLabels; l++ {
		c.active[l] = prefixSum(c.offsets[l])
		c.targets[l] = make([]int32, c.offsets[l][g.numVertices])
	}
	fill := make([][]int32, g.numLabels)
	for l := range fill {
		fill[l] = make([]int32, g.numVertices)
	}
	for _, e := range edges {
		pos := c.offsets[e.Label][e.Src] + fill[e.Label][e.Src]
		c.targets[e.Label][pos] = int32(e.Dst)
		fill[e.Label][e.Src]++
	}
	return c
}

// Thaw is Freeze's inverse: a mutable Graph holding the CSR's vertices,
// label names and edges, built in O(|V|·|L| + |E|).
func (c *CSR) Thaw() *Graph {
	g := New(c.numVertices, c.numLabels)
	copy(g.labelNames, c.labelNames)
	g.edges = make(map[Edge]struct{}, c.numEdges)
	for l := 0; l < c.numLabels; l++ {
		for v := 0; v < c.numVertices; v++ {
			for _, t := range c.Successors(v, l) {
				g.edges[Edge{Src: v, Label: l, Dst: int(t)}] = struct{}{}
			}
		}
	}
	return g
}

// prefixSum turns per-row counts, stored at off[v+1], into CSR offsets in
// place and returns the non-empty rows, ascending, in a list of their
// exact length.
func prefixSum(off []int32) []int32 {
	rows := 0
	for _, c := range off[1:] {
		if c > 0 {
			rows++
		}
	}
	active := make([]int32, 0, rows)
	for v := 1; v < len(off); v++ {
		if off[v] > 0 {
			active = append(active, int32(v-1))
		}
		off[v] += off[v-1]
	}
	return active
}

// CSR is the immutable compressed-sparse-row form of a Graph: for each
// label, a per-source adjacency array. It is safe for concurrent readers.
type CSR struct {
	numVertices int
	numLabels   int
	numEdges    int
	labelNames  []string

	// offsets[l][v]..offsets[l][v+1] index targets[l] with the successors
	// of v via label l, sorted ascending.
	offsets [][]int32
	targets [][]int32

	// roffsets/rtargets are the reverse CSR per label — incoming edges,
	// indexed by target — built lazily by PredecessorOperand; revOnce[l]
	// makes the first build per label safe under concurrent callers.
	roffsets [][]int32
	rtargets [][]int32
	revOnce  []sync.Once

	// active[l] and ractive[l] list the non-empty rows of label l's forward
	// and reverse CSR (CSROperand.Active), the first at Freeze, the second
	// with the reverse CSR.
	active  [][]int32
	ractive [][]int32
}

// NumVertices returns |V|.
func (c *CSR) NumVertices() int { return c.numVertices }

// NumLabels returns |L|.
func (c *CSR) NumLabels() int { return c.numLabels }

// NumEdges returns |E|.
func (c *CSR) NumEdges() int { return c.numEdges }

// LabelName returns the display name of label l.
func (c *CSR) LabelName(l int) string { return c.labelNames[l] }

// LabelNames returns a copy of every label's display name, in label order.
func (c *CSR) LabelNames() []string { return append([]string(nil), c.labelNames...) }

// Successors returns the sorted successor vertices of v via label l. The
// returned slice aliases internal storage and must not be modified.
func (c *CSR) Successors(v, l int) []int32 {
	return c.targets[l][c.offsets[l][v]:c.offsets[l][v+1]]
}

// LabelFrequencies returns f(l) for every edge label l: the number of edges
// carrying that label. This is the length-1 path selectivity used by the
// cardinality ranking rule.
func (c *CSR) LabelFrequencies() []int64 {
	freq := make([]int64, c.numLabels)
	for l := 0; l < c.numLabels; l++ {
		freq[l] = int64(len(c.targets[l]))
	}
	return freq
}

// PredecessorOperand returns label l's reversed adjacency as a compose
// operand: operand row v holds every u with (u, l, v) ∈ E, sorted
// ascending, and Active lists the vertices with one. No execution step
// reads it — a leftward step joins the forward operand's rows with the
// segment instead — and the benchmark module forces it. Built once per
// label (counting sort of the forward CSR) behind a sync.Once, so
// concurrent first calls are safe.
func (c *CSR) PredecessorOperand(l int) bitset.CSROperand {
	c.revOnce[l].Do(func() {
		off := make([]int32, c.numVertices+1)
		for _, t := range c.targets[l] {
			off[t+1]++
		}
		c.ractive[l] = prefixSum(off)
		rt := make([]int32, len(c.targets[l]))
		fill := make([]int32, c.numVertices)
		// Scanning sources ascending emits each target's predecessors in
		// ascending order, preserving the sorted-row invariant.
		for v := 0; v < c.numVertices; v++ {
			for _, t := range c.Successors(v, l) {
				rt[off[t]+fill[t]] = int32(v)
				fill[t]++
			}
		}
		c.roffsets[l] = off
		c.rtargets[l] = rt
	})
	return bitset.CSROperand{
		N:       c.numVertices,
		Offsets: c.roffsets[l],
		Targets: c.rtargets[l],
		Active:  c.ractive[l],
	}
}

// LabelOperand returns label l's adjacency as a compose operand: its CSR
// arrays, which alias internal storage and must not be modified. Safe for
// concurrent callers.
func (c *CSR) LabelOperand(l int) bitset.CSROperand {
	return bitset.CSROperand{
		N:       c.numVertices,
		Offsets: c.offsets[l],
		Targets: c.targets[l],
		Active:  c.active[l],
	}
}

// Operands returns the compose operands of every label, which the census
// engines take once up front.
func (c *CSR) Operands() []bitset.CSROperand {
	ops := make([]bitset.CSROperand, c.numLabels)
	for l := range ops {
		ops[l] = c.LabelOperand(l)
	}
	return ops
}
