// Package graph is the bottom layer of the reproduction (graph → bitset →
// paths → exec → pathsel): the directed edge-labeled multigraph
// G = (V, L, E) with E ⊆ V × L × V. It provides a mutable builder and an
// immutable, concurrency-safe CSR (compressed sparse row) form that
// serves every engine above it with per-label adjacency in the shapes
// their kernels consume:
//
//   - LabelOperand / LabelCSR: forward adjacency as a dual-form compose
//     operand (CSR arrays for the sparse scatter kernel, dense successor
//     sets for the word-parallel kernel) — the census and the rightward
//     join steps of execution.
//   - PredecessorOperand / PredecessorCSR: reversed adjacency in the same
//     dual form — the leftward (prepend) join steps of backward and
//     zig-zag execution.
//     The CSR-only forms are also a label's relation itself, read in
//     place: the left side of a leaf's first step and the operands of a
//     label-set base carry no dense tables, and report their non-empty
//     row count (CSROperand.Sources) so such a step shards without a pass.
//   - SuccessorSets / PredecessorSets: the dense halves of those
//     operands, which the test-only dense reference (internal/oracle,
//     what the equivalence tests pin the hybrid engines against) also
//     composes through.
//
// All lazily built tables are sync.Once-guarded, so first use is safe
// under concurrent callers and the hot loops never pay initialization.
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

// LabelByName returns the label id with the given display name, or -1.
func (g *Graph) LabelByName(name string) int {
	for i, n := range g.labelNames {
		if n == name {
			return i
		}
	}
	return -1
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

// LabelFrequencies returns f(l) for every edge label l: the number of edges
// carrying that label. This is the length-1 path selectivity used by the
// cardinality ranking rule.
func (g *Graph) LabelFrequencies() []int64 {
	freq := make([]int64, g.numLabels)
	for e := range g.edges {
		freq[e.Label]++
	}
	return freq
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
		sources:     make([]int, g.numLabels),
		rsources:    make([]int, g.numLabels),
		succ:        make([][]*bitset.Set, g.numLabels),
		pred:        make([][]*bitset.Set, g.numLabels),
		succOnce:    make([]sync.Once, g.numLabels),
		predOnce:    make([]sync.Once, g.numLabels),
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
		c.sources[l] = prefixSum(c.offsets[l])
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

// prefixSum turns per-row counts, stored at off[v+1], into CSR offsets in
// place and returns how many rows are non-empty.
func prefixSum(off []int32) (rows int) {
	for v := 1; v < len(off); v++ {
		if off[v] > 0 {
			rows++
		}
		off[v] += off[v-1]
	}
	return rows
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
	// indexed by target — built lazily by PredecessorCSR for backward and
	// zig-zag join steps.
	roffsets [][]int32
	rtargets [][]int32

	// sources[l] and rsources[l] count the non-empty rows of label l's
	// forward and reverse CSR (CSROperand.Sources), the first at Freeze, the
	// second with the reverse CSR.
	sources  []int
	rsources []int

	// succ[l] is built lazily by SuccessorSets; pred[l] by
	// PredecessorSets; roffsets/rtargets by PredecessorCSR. The sync.Once
	// guards make the first build per label safe under concurrent callers.
	succ     [][]*bitset.Set
	pred     [][]*bitset.Set
	succOnce []sync.Once
	predOnce []sync.Once
	revOnce  []sync.Once
}

// NumVertices returns |V|.
func (c *CSR) NumVertices() int { return c.numVertices }

// NumLabels returns |L|.
func (c *CSR) NumLabels() int { return c.numLabels }

// NumEdges returns |E|.
func (c *CSR) NumEdges() int { return c.numEdges }

// LabelName returns the display name of label l.
func (c *CSR) LabelName(l int) string { return c.labelNames[l] }

// Successors returns the sorted successor vertices of v via label l. The
// returned slice aliases internal storage and must not be modified.
func (c *CSR) Successors(v, l int) []int32 {
	return c.targets[l][c.offsets[l][v]:c.offsets[l][v+1]]
}

// LabelFrequencies returns f(l) for every edge label.
func (c *CSR) LabelFrequencies() []int64 {
	freq := make([]int64, c.numLabels)
	for l := 0; l < c.numLabels; l++ {
		freq[l] = int64(len(c.targets[l]))
	}
	return freq
}

// SuccessorSets returns, for label l, a per-vertex successor bit set
// table: the dense half of LabelOperand (driving the dense×CSR compose
// kernel) and the input of the oracle.Relation.Compose reference path
// (internal/oracle, test-only). Rows for vertices with no successors are
// nil. The table is built once per label and cached behind a sync.Once,
// so concurrent first calls are safe.
func (c *CSR) SuccessorSets(l int) []*bitset.Set {
	c.succOnce[l].Do(func() {
		tab := make([]*bitset.Set, c.numVertices)
		for v := 0; v < c.numVertices; v++ {
			ts := c.Successors(v, l)
			if len(ts) == 0 {
				continue
			}
			s := bitset.New(c.numVertices)
			for _, t := range ts {
				s.Add(int(t))
			}
			tab[v] = s
		}
		c.succ[l] = tab
	})
	return c.succ[l]
}

// PredecessorSets returns, for label l, a per-vertex predecessor bit set
// table: pred[v] contains every u with (u, l, v) ∈ E. Used by backward
// (right-to-left) path evaluation. Built once per label and cached behind a
// sync.Once, so concurrent first calls are safe.
func (c *CSR) PredecessorSets(l int) []*bitset.Set {
	c.predOnce[l].Do(func() {
		tab := make([]*bitset.Set, c.numVertices)
		for v := 0; v < c.numVertices; v++ {
			for _, t := range c.Successors(v, l) {
				if tab[t] == nil {
					tab[t] = bitset.New(c.numVertices)
				}
				tab[t].Add(v)
			}
		}
		c.pred[l] = tab
	})
	return c.pred[l]
}

// PredecessorCSR returns label l's reversed adjacency as a CSR-only
// compose operand: operand row v holds every u with (u, l, v) ∈ E, sorted
// ascending. Composing a reversed relation with it is the prepend step of
// backward and zig-zag execution. Built once per label (counting sort of
// the forward CSR) behind a sync.Once, so concurrent first calls are safe.
func (c *CSR) PredecessorCSR(l int) bitset.CSROperand {
	c.revOnce[l].Do(func() {
		off := make([]int32, c.numVertices+1)
		for _, t := range c.targets[l] {
			off[t+1]++
		}
		c.rsources[l] = prefixSum(off)
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
		Sources: c.rsources[l],
	}
}

// PredecessorOperand returns label l's reversed adjacency as a dual-form
// compose operand: the reverse CSR arrays for the sparse scatter kernel
// plus the dense predecessor sets for the word-parallel kernel. Safe for
// concurrent callers.
func (c *CSR) PredecessorOperand(l int) bitset.CSROperand {
	op := c.PredecessorCSR(l)
	op.Dense = c.PredecessorSets(l)
	return op
}

// LabelOperand returns label l's adjacency as a dual-form compose operand:
// the CSR arrays for the sparse scatter kernel plus the dense successor
// sets for the word-parallel kernel. The CSR slices alias internal storage
// and must not be modified. Safe for concurrent callers.
func (c *CSR) LabelOperand(l int) bitset.CSROperand {
	op := c.LabelCSR(l)
	op.Dense = c.SuccessorSets(l)
	return op
}

// LabelCSR returns label l's adjacency as a CSR-only compose operand, with
// no dense successor sets. Sufficient for engines configured to keep every
// relation row sparse, which never touch the dense kernel, and for every
// reader of the label's rows as rows: a base, the left side of a first step.
func (c *CSR) LabelCSR(l int) bitset.CSROperand {
	return bitset.CSROperand{
		N:       c.numVertices,
		Offsets: c.offsets[l],
		Targets: c.targets[l],
		Sources: c.sources[l],
	}
}

// Operands eagerly builds and returns the compose operands of every label.
// The census engines call this once up front so the hot loop never pays
// (or races on) lazy initialization. withDense selects the dual-form
// operands; false skips building the per-label dense successor tables
// (O(|L|·sources·|V|/8) bytes) for sparse-only configurations.
func (c *CSR) Operands(withDense bool) []bitset.CSROperand {
	ops := make([]bitset.CSROperand, c.numLabels)
	for l := 0; l < c.numLabels; l++ {
		if withDense {
			ops[l] = c.LabelOperand(l)
		} else {
			ops[l] = c.LabelCSR(l)
		}
	}
	return ops
}
