package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/ordering"
)

// tinyOptions keeps experiment tests fast.
func tinyOptions() Options {
	return Options{
		Scale:      0.02,
		Seed:       1,
		TimingK:    3,
		AccuracyKs: []int{2},
		BetaDenoms: []int{4, 32},
		Queries:    200,
		Repeats:    1,
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Scale: 0, TimingK: 3, AccuracyKs: []int{2}, BetaDenoms: []int{2}, Queries: 1, Repeats: 1},
		{Scale: 0.5, TimingK: 0, AccuracyKs: []int{2}, BetaDenoms: []int{2}, Queries: 1, Repeats: 1},
		{Scale: 0.5, TimingK: 3, AccuracyKs: nil, BetaDenoms: []int{2}, Queries: 1, Repeats: 1},
		{Scale: 0.5, TimingK: 3, AccuracyKs: []int{2}, BetaDenoms: nil, Queries: 1, Repeats: 1},
		{Scale: 2, TimingK: 3, AccuracyKs: []int{2}, BetaDenoms: []int{2}, Queries: 1, Repeats: 1},
		{Scale: math.NaN(), TimingK: 3, AccuracyKs: []int{2}, BetaDenoms: []int{2}, Queries: 1, Repeats: 1},
		{Scale: 0.5, TimingK: 3, AccuracyKs: []int{0}, BetaDenoms: []int{2}, Queries: 1, Repeats: 1},
		{Scale: 0.5, TimingK: 3, AccuracyKs: []int{2}, BetaDenoms: []int{0}, Queries: 1, Repeats: 1},
	}
	for i, o := range bad {
		err := o.validate()
		if err == nil {
			t.Errorf("options %d should be invalid", i)
		} else if strings.HasPrefix(err.Error(), "experiments:") {
			t.Errorf("options %d: %q repeats the prefix cmd/experiments prints", i, err)
		}
	}
	if err := DefaultOptions().validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	if err := PaperOptions().validate(); err != nil {
		t.Fatalf("paper options invalid: %v", err)
	}
}

func TestBetasDerivation(t *testing.T) {
	o := Options{BetaDenoms: []int{2, 4, 8, 16, 32, 64, 128}}
	// The paper's Moreno k=6 domain: 55986 → 27993, 13996, 6998, 3499,
	// 1749, 874, 437.
	got := o.betas(55986)
	want := []int{27993, 13996, 6998, 3499, 1749, 874, 437}
	if len(got) != len(want) {
		t.Fatalf("betas = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("betas[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Degenerate budgets are dropped.
	if bs := o.betas(100); len(bs) != len(want) {
		for _, b := range bs {
			if b < 1 {
				t.Fatal("budget below 1 not dropped")
			}
		}
	}
}

func TestRunTables12MatchesPaper(t *testing.T) {
	res := RunTables12()
	if res.SummedRanks["2/2"] != 6 || res.SummedRanks["1"] != 1 || res.SummedRanks["3/1"] != 3 {
		t.Fatalf("summed ranks wrong: %v", res.SummedRanks)
	}
	wantSum := []string{"1", "3", "2", "1/1", "1/3", "3/1", "3/3", "1/2", "2/1", "3/2", "2/3", "2/2"}
	got := res.Orderings[ordering.MethodSumBased]
	for i := range wantSum {
		if got[i] != wantSum[i] {
			t.Fatalf("sum-based row = %v, want %v", got, wantSum)
		}
	}
	tables := res.Tables()
	if len(tables) != 2 || tables[0].Rows[0][3] != "2" || tables[0].Header[3] != "1/1" {
		t.Fatalf("Table 1 = %+v", tables[0])
	}
	if row := tables[1].Rows[len(tables[1].Rows)-1]; row[0] != ordering.MethodSumBased || strings.Join(row[1:], " ") != strings.Join(wantSum, " ") {
		t.Fatalf("Table 2's sum-based row = %v", row)
	}
	var buf bytes.Buffer
	tableSet(tables).Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "sum-based") {
		t.Fatalf("render missing sections:\n%s", out)
	}
}

func TestRunTable3(t *testing.T) {
	rows, err := RunTable3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredLabels != r.Spec.Labels {
			t.Errorf("%s: labels %d != %d", r.Spec.Name, r.MeasuredLabels, r.Spec.Labels)
		}
		if r.MeasuredEdges <= 0 || r.MeasuredVertices <= 0 {
			t.Errorf("%s: empty graph", r.Spec.Name)
		}
	}
	var buf bytes.Buffer
	table3Table(rows).Render(&buf)
	if !strings.Contains(buf.String(), "Moreno health") {
		t.Fatal("render missing dataset name")
	}
}

func TestRunTable4Shape(t *testing.T) {
	res, err := RunTable4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 5 {
		t.Fatalf("methods = %v", res.Methods)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, m := range res.Methods {
			v, ok := row.AvgMicros[m]
			if !ok || v <= 0 {
				t.Fatalf("β=%d method %s: bad timing %v", row.Beta, m, v)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table 4") {
		t.Fatal("render missing title")
	}
}

func TestRunFigure2ShapeAndSumBasedWins(t *testing.T) {
	opt := tinyOptions()
	res, err := RunFigure2(opt)
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets × 1 k × 2 betas × 5 methods.
	if len(res.Cells) != 4*1*2*5 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.MeanErrorRate < 0 || c.MeanErrorRate > 1 {
			t.Fatalf("error rate %v outside [0,1]: %+v", c.MeanErrorRate, c)
		}
	}
	if res.Cell("SNAP-ER", 2, 0, ordering.MethodNumAlph) != nil {
		t.Fatal("Cell with unknown beta should be nil")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Fatal("render missing title")
	}
}

func TestRunFigure1(t *testing.T) {
	res, err := RunFigure1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Fatal("Figure 1 is a k=3 visualization")
	}
	if len(res.Labels) != len(res.Frequencies) || len(res.Labels) != len(res.BucketMeans) {
		t.Fatal("series lengths disagree")
	}
	// Domain must be all non-empty paths in num-alph order: first label
	// path is "1".
	if res.Labels[0] != "1" {
		t.Fatalf("first domain label = %q", res.Labels[0])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestBuilderAblation(t *testing.T) {
	cells, err := BuilderAblation(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5*5 {
		t.Fatalf("cells = %d, want 25", len(cells))
	}
	for _, c := range cells {
		if c.MeanErrorRate < 0 || c.MeanErrorRate > 1 {
			t.Fatalf("bad error rate %+v", c)
		}
	}
}

func TestOrderingBounds(t *testing.T) {
	cells, err := OrderingBounds(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 2 betas × 8 orderings (5 paper methods + ideal + sum-L2 + product).
	if len(cells) != 16 {
		t.Fatalf("cells = %d, want 16", len(cells))
	}
	want := map[string]bool{"ideal": false, "sum-L2": false, "product": false}
	for _, c := range cells {
		if _, ok := want[c.Method]; ok {
			want[c.Method] = true
		}
	}
	for m, found := range want {
		if !found {
			t.Errorf("%s ordering missing from bounds", m)
		}
	}
}

func TestRenderTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	RenderTable(&buf, []string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatal("missing separator")
	}
}
