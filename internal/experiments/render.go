package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
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

// figure1Rows bounds the Figure 1 chart's height: a longer domain is
// downsampled.
const figure1Rows = 60

// Render writes the Figure 1 distribution as an ASCII chart: the true
// frequency and the equi-width bucket mean per domain position, downsampled
// to at most figure1Rows rows.
func (r *Figure1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: %s, k=%d, num-alph domain, equi-width β=%d\n", r.Dataset, r.K, r.Beta)
	n := len(r.Frequencies)
	step := 1
	if n > figure1Rows {
		step = (n + figure1Rows - 1) / figure1Rows
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

// Tables lays Table 4 out as one row per (β, method) cell.
func (r *Table4Result) Tables() []*Table {
	t := &Table{Name: "table4", Title: "Table 4: average estimation time (µs/query), V-Optimal",
		Header: []string{"dataset", "k", "domain_size", "beta", "method", "avg_micros"}}
	for _, row := range r.Rows {
		for _, m := range r.Methods {
			t.Rows = append(t.Rows, []string{r.Dataset, strconv.Itoa(r.K), strconv.FormatInt(r.DomainSize, 10),
				strconv.Itoa(row.Beta), m, fixed(row.AvgMicros[m], 6)})
		}
	}
	return []*Table{t}
}

// Tables lays Figure 2 out as one row per cell.
func (r *Figure2Result) Tables() []*Table {
	t := &Table{Name: "figure2", Title: "Figure 2: mean error rate (V-Optimal)",
		Header: []string{"dataset", "k", "beta", "method", "mean_error_rate"}}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{c.Dataset, strconv.Itoa(c.K), strconv.Itoa(c.Beta), c.Method, fixed(c.MeanErrorRate, 6)})
	}
	return []*Table{t}
}

// Tables lays the Figure 1 series out as one row per domain position.
func (r *Figure1Result) Tables() []*Table {
	t := &Table{Name: "figure1", Title: "Figure 1: label-path frequency and equi-width bucket mean, num-alph domain",
		Header: []string{"index", "label_path", "frequency", "bucket_mean"}}
	for i, f := range r.Frequencies {
		t.Rows = append(t.Rows, []string{strconv.Itoa(i), r.Labels[i], strconv.FormatInt(f, 10), fixed(r.BucketMeans[i], 4)})
	}
	return []*Table{t}
}
