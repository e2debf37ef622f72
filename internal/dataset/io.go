package dataset

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// WriteEdgeList writes the frozen graph c in the Konect-style
// whitespace-separated format used by the loader:
//
//	% comment lines start with '%' or '#'
//	src dst label
//
// Vertices are written 1-based (Konect convention) and labels by display
// name. Edges appear in deterministic (label, src, dst) order: the CSR's
// own.
func WriteEdgeList(w io.Writer, c *graph.CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%% directed labeled graph: %d vertices, %d labels, %d edges\n",
		c.NumVertices(), c.NumLabels(), c.NumEdges())
	for l := 0; l < c.NumLabels(); l++ {
		for v := 0; v < c.NumVertices(); v++ {
			for _, t := range c.Successors(v, l) {
				fmt.Fprintf(bw, "%d %d %s\n", v+1, t+1, c.LabelName(l))
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format written by WriteEdgeList. Vertex ids may
// be arbitrary positive integers (they are densified); labels may be
// arbitrary tokens (densified alphabetically, so that alphabetical ranking
// over the loaded graph matches the file's label names). Lines starting
// with '%' or '#' and blank lines are skipped. A missing label column
// defaults to the single label "1".
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	type rawEdge struct {
		src, dst int
		label    string
	}
	var raw []rawEdge
	vertexIDs := map[int]struct{}{}
	labelSet := map[string]struct{}{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset: line %d: want `src dst [label]`, got %q", lineNo, line)
		}
		src, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		dst, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		label := "1"
		if len(fields) >= 3 {
			label = fields[2]
		}
		raw = append(raw, rawEdge{src, dst, label})
		vertexIDs[src] = struct{}{}
		vertexIDs[dst] = struct{}{}
		labelSet[label] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %v", err)
	}

	// Densify vertices in ascending id order and labels alphabetically.
	vids := make([]int, 0, len(vertexIDs))
	for v := range vertexIDs {
		vids = append(vids, v)
	}
	sort.Ints(vids)
	vmap := make(map[int]int, len(vids))
	for i, v := range vids {
		vmap[v] = i
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	lmap := make(map[string]int, len(labels))
	for i, l := range labels {
		lmap[l] = i
	}

	g := graph.New(len(vids), len(labels))
	for i, l := range labels {
		g.SetLabelName(i, l)
	}
	for _, e := range raw {
		g.AddEdge(vmap[e.src], lmap[e.label], vmap[e.dst])
	}
	return g, nil
}
