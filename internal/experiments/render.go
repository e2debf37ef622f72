package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// RenderTable writes a fixed-width ASCII table: header row, separator,
// data rows. Columns are sized to their widest cell.
func RenderTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(widths))
		for i := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	seps := make([]string, len(widths))
	for i, width := range widths {
		seps[i] = strings.Repeat("-", width)
	}
	line(seps)
	for _, row := range rows {
		line(row)
	}
}

// Render writes Table 4 in the paper's layout: β rows, one column per
// ordering method, per-estimate latency.
func (r *Table4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 4: average estimation time (µs/query), %s, k=%d, |Lk|=%d, V-Optimal\n",
		r.Dataset, r.K, r.DomainSize)
	header := append([]string{"beta"}, r.Methods...)
	var rows [][]string
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%d", row.Beta)}
		for _, m := range r.Methods {
			cells = append(cells, fmt.Sprintf("%.3f", row.AvgMicros[m]))
		}
		rows = append(rows, cells)
	}
	RenderTable(w, header, rows)
}

// Render writes Figure 2 as one table per (dataset, k): β rows × method
// columns of mean error rates.
func (r *Figure2Result) Render(w io.Writer) {
	type group struct {
		ds string
		k  int
	}
	groups := []group{}
	seen := map[group]bool{}
	for _, c := range r.Cells {
		g := group{c.Dataset, c.K}
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	for _, g := range groups {
		fmt.Fprintf(w, "\nFigure 2: mean error rate — %s, k=%d (V-Optimal)\n", g.ds, g.k)
		betas := []int{}
		bseen := map[int]bool{}
		for _, c := range r.Cells {
			if c.Dataset == g.ds && c.K == g.k && !bseen[c.Beta] {
				bseen[c.Beta] = true
				betas = append(betas, c.Beta)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(betas)))
		header := append([]string{"beta"}, r.Methods...)
		var rows [][]string
		for _, b := range betas {
			cells := []string{fmt.Sprintf("%d", b)}
			for _, m := range r.Methods {
				if c := r.Cell(g.ds, g.k, b, m); c != nil {
					cells = append(cells, fmt.Sprintf("%.4f", c.MeanErrorRate))
				} else {
					cells = append(cells, "-")
				}
			}
			rows = append(rows, cells)
		}
		RenderTable(w, header, rows)
	}
}

// Render writes the Figure 1 distribution as an ASCII chart: the true
// frequency and the equi-width bucket mean per domain position, downsampled
// to at most maxRows rows.
func (r *Figure1Result) Render(w io.Writer, maxRows int) {
	fmt.Fprintf(w, "Figure 1: %s, k=%d, num-alph domain, equi-width β=%d\n", r.Dataset, r.K, r.Beta)
	n := len(r.Frequencies)
	step := 1
	if maxRows > 0 && n > maxRows {
		step = (n + maxRows - 1) / maxRows
	}
	var max int64
	for _, f := range r.Frequencies {
		if f > max {
			max = f
		}
	}
	const width = 60
	for i := 0; i < n; i += step {
		bar := 0
		if max > 0 {
			bar = int(float64(r.Frequencies[i]) / float64(max) * width)
		}
		est := 0
		if max > 0 {
			est = int(r.BucketMeans[i] / float64(max) * width)
		}
		marks := []rune(strings.Repeat("█", bar) + strings.Repeat(" ", width+2-bar))
		if est >= 0 && est < len(marks) {
			marks[est] = '|' // histogram staircase overlay
		}
		fmt.Fprintf(w, "%-12s %s f=%d e=%.1f\n", r.Labels[i], string(marks), r.Frequencies[i], r.BucketMeans[i])
	}
}

// RenderTable3 writes the dataset inventory with published vs measured
// statistics.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: datasets (published → measured at current scale)")
	header := []string{"dataset", "#labels", "#vertices(pub)", "#vertices", "#edges(pub)", "#edges", "real world"}
	var cells [][]string
	for _, r := range rows {
		real := "no"
		if r.Spec.RealWorld {
			real = "yes"
		}
		cells = append(cells, []string{
			r.Spec.Name,
			fmt.Sprintf("%d", r.MeasuredLabels),
			fmt.Sprintf("%d", r.Spec.Vertices),
			fmt.Sprintf("%d", r.MeasuredVertices),
			fmt.Sprintf("%d", r.Spec.Edges),
			fmt.Sprintf("%d", r.MeasuredEdges),
			real,
		})
	}
	RenderTable(w, header, cells)
}

// Render writes the worked example in the paper's Table 1 + Table 2 form.
func (r *Tables12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1: summed ranks (labels 1,2,3 with f = 20,100,80; cardinality ranking)")
	keys := make([]string, 0, len(r.SummedRanks))
	for k := range r.SummedRanks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	row := make([]string, len(keys))
	for i, k := range keys {
		row[i] = fmt.Sprintf("%d", r.SummedRanks[k])
	}
	RenderTable(w, keys, [][]string{row})

	fmt.Fprintln(w, "\nTable 2: ordered label paths per method")
	methods := make([]string, 0, len(r.Orderings))
	for m := range r.Orderings {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	header := []string{"index"}
	for i := 0; i < 12; i++ {
		header = append(header, fmt.Sprintf("%d", i))
	}
	var rows [][]string
	for _, m := range methods {
		rows = append(rows, append([]string{m}, r.Orderings[m]...))
	}
	RenderTable(w, header, rows)
}
