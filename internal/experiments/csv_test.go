package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	records, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func TestTable4CSV(t *testing.T) {
	res, err := RunTable4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Tables()[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	wantRows := 1 + len(res.Rows)*len(res.Methods)
	if len(records) != wantRows {
		t.Fatalf("rows = %d, want %d", len(records), wantRows)
	}
	if strings.Join(records[0], ",") != "dataset,k,domain_size,beta,method,avg_micros" {
		t.Fatalf("header = %v", records[0])
	}
	for _, rec := range records[1:] {
		if rec[0] != "Moreno health" {
			t.Fatalf("dataset column = %q", rec[0])
		}
	}
}

func TestFigure2CSV(t *testing.T) {
	res, err := RunFigure2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Tables()[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 1+len(res.Cells) {
		t.Fatalf("rows = %d, want %d", len(records), 1+len(res.Cells))
	}
}

func TestFigure1CSV(t *testing.T) {
	res, err := RunFigure1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Tables()[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 1+len(res.Frequencies) {
		t.Fatalf("rows = %d, want %d", len(records), 1+len(res.Frequencies))
	}
	if records[1][0] != "0" || records[1][1] != "1" {
		t.Fatalf("first data row = %v", records[1])
	}
}

func TestDatasetFilter(t *testing.T) {
	opt := tinyOptions()
	opt.Datasets = []string{"SNAP-ER"}
	res, err := RunFigure2(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Dataset != "SNAP-ER" {
			t.Fatalf("dataset filter leaked %q", c.Dataset)
		}
	}
	if len(res.Cells) == 0 {
		t.Fatal("filtered run produced no cells")
	}
	rows, err := RunTable3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Spec.Name != "SNAP-ER" {
		t.Fatalf("Table 3 filter wrong: %d rows", len(rows))
	}
	// An unknown name is an error that lists the valid ones, not an
	// empty table.
	opt.Datasets = []string{"nope"}
	_, err = RunTable3(opt)
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), `"SNAP-ER"`) {
		t.Fatalf("unknown dataset name: err = %v", err)
	}
}

// failWriter errors after n bytes, exercising the CSV writer's error
// path.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, bytes.ErrTooLarge
	}
	w.n -= len(p)
	return len(p), nil
}

// TestCSVWriteFailures runs every table of the registry through a
// writer that fails, and requires the error to surface.
func TestCSVWriteFailures(t *testing.T) {
	for _, e := range Experiments {
		res, err := e.Run(tinyOptions())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, tab := range res.Tables() {
			if err := tab.WriteCSV(&failWriter{n: 10}); err == nil {
				t.Errorf("%s: failing writer should surface an error", tab.Name)
			}
		}
	}
}

func TestBoundsAndAblationCSV(t *testing.T) {
	opt := tinyOptions()
	bounds, err := OrderingBounds(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := boundsTable(bounds).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, &buf)); got != 1+len(bounds) {
		t.Fatalf("bounds rows = %d", got)
	}

	cells, err := BuilderAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ablationTable(cells).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, &buf)); got != 1+len(cells) {
		t.Fatalf("ablation rows = %d", got)
	}
}
