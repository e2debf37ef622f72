package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Table is one result table of an experiment. The console and the CSV
// file read the same cells, each formatted once.
type Table struct {
	// Name is the file name without its extension: -csv writes the table
	// as DIR/<Name>.csv, and the golden gate compares it with
	// testdata/<Name>.golden.csv.
	Name   string
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the title line and the table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintln(w, t.Title)
	RenderTable(w, t.Header, t.Rows)
}

// WriteCSV writes the header and then every row as one CSV record.
func (t *Table) WriteCSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(append([][]string{t.Header}, t.Rows...))
}

// fixed formats v with prec decimals, the one float format of every table.
func fixed(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// Result is what one run of an experiment returns: the tables -csv writes
// and the console form Render prints. The console form is the paper's own
// layout for Table 4 and Figures 1–2, and every table in turn for the
// rest.
type Result interface {
	Render(w io.Writer)
	Tables() []*Table
}

// tableSet is the Result of an experiment whose console form is its
// tables.
type tableSet []*Table

func (s tableSet) Tables() []*Table { return s }

func (s tableSet) Render(w io.Writer) {
	for i, t := range s {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t.Render(w)
	}
}

// Experiment is one entry of the registry.
type Experiment struct {
	Name string
	Run  func(Options) (Result, error)
}

// Experiments is every experiment, in the order "all" runs them. It is
// the one list behind cmd/experiments (its help, "all", dispatch and
// -csv) and behind the golden gate.
var Experiments = []Experiment{
	{"tables12", func(Options) (Result, error) { return tableSet(RunTables12().Tables()), nil }},
	{"table3", tabulated(RunTable3, table3Table)},
	{"figure1", typed(RunFigure1)},
	{"table4", typed(RunTable4)},
	{"figure2", typed(RunFigure2)},
	{"ablation", tabulated(BuilderAblation, ablationTable)},
	{"bounds", tabulated(OrderingBounds, boundsTable)},
	{"workload", tabulated(WorkloadAccuracy, workloadTable)},
	{"correlation", tabulated(func(opt Options) ([]CorrelationCell, error) {
		return CorrelationSweep(opt, nil)
	}, correlationTable, advantageTable)},
	{"plans", tabulated(PlanQuality, planTable)},
	{"profile", tabulated(ErrorProfiles, profileTable)},
}

// typed adapts a run whose result has a console form of its own.
func typed[R Result](run func(Options) (R, error)) func(Options) (Result, error) {
	return func(opt Options) (Result, error) {
		res, err := run(opt)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// tabulated adapts a run that returns cells: each of tables lays them out
// as one table.
func tabulated[C any](run func(Options) ([]C, error), tables ...func([]C) *Table) func(Options) (Result, error) {
	return func(opt Options) (Result, error) {
		cells, err := run(opt)
		if err != nil {
			return nil, err
		}
		set := make(tableSet, len(tables))
		for i, table := range tables {
			set[i] = table(cells)
		}
		return set, nil
	}
}
