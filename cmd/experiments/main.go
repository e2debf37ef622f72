// Command experiments reproduces the paper's evaluation tables and
// figures. By default it runs every experiment at a reduced dataset scale
// (same code paths, smaller graphs — see internal/dataset); -full switches to
// the published parameters (slow: the Figure 2 sweep recomputes exact
// selectivity censuses at k = 6 on ~200k-edge graphs).
//
// Usage:
//
//	experiments [-exp all|NAME] [-scale 0.04] [-seed 1] [-full]
//	            [-csv DIR] [-dataset NAME] [-maxk K]
//
// -h lists the experiment names. With -csv, each experiment with a CSV
// form additionally writes it (table4.csv, figure2.csv, …) into DIR for
// plotting.
//
// It measures accuracy and plan quality, not speed: speed is bench/'s job
// (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(names(), ", "))
	scale := flag.Float64("scale", 0, "dataset scale in (0,1]; 0 = configuration default")
	seed := flag.Int64("seed", 1, "generator seed")
	full := flag.Bool("full", false, "use the paper's published parameters (slow)")
	csvDir := flag.String("csv", "", "directory to write CSV result files into (created if missing)")
	ds := flag.String("dataset", "", "restrict figure2/table3 to one Table 3 dataset name")
	maxK := flag.Int("maxk", 0, "cap the accuracy sweep's path length bound (0 = configuration default)")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	opt := experiments.DefaultOptions()
	if *full {
		opt = experiments.PaperOptions()
	}
	if *scale > 0 {
		opt.Scale = *scale
	}
	opt.Seed = *seed
	if *ds != "" {
		opt.Datasets = []string{*ds}
	}
	if *maxK > 0 {
		ks, err := capKs(opt.AccuracyKs, *maxK)
		if err != nil {
			die(err)
		}
		opt.AccuracyKs = ks
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			die(err)
		}
	}
	if err := run(*exp, opt, *csvDir); err != nil {
		die(err)
	}
}

// capKs keeps the path length bounds of ks (ascending) that are ≤ maxK.
func capKs(ks []int, maxK int) ([]int, error) {
	var out []int
	for _, k := range ks {
		if k <= maxK {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-maxk %d is below the smallest path length bound of the sweep, %d", maxK, ks[0])
	}
	return out, nil
}

// writeCSV writes one CSV artifact via the supplied encoder.
func writeCSV(dir, name string, encode func(*os.File) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// experiment is one runnable entry of the registry: it prints its table
// to out and, when csvDir is set and it has a CSV form, writes that too.
type experiment struct {
	name string
	run  func(out io.Writer, opt experiments.Options, csvDir string) error
}

// registry is every runnable experiment, in the order "all" runs them. It
// is the one list behind the -exp help, "all", dispatch and the
// unknown-name error.
var registry = []experiment{
	{"tables12", func(out io.Writer, _ experiments.Options, _ string) error {
		experiments.RunTables12().Render(out)
		return nil
	}},
	{"table3", func(out io.Writer, opt experiments.Options, _ string) error {
		rows, err := experiments.RunTable3(opt)
		if err != nil {
			return err
		}
		experiments.RenderTable3(out, rows)
		return nil
	}},
	{"figure1", func(out io.Writer, opt experiments.Options, csvDir string) error {
		res, err := experiments.RunFigure1(opt)
		if err != nil {
			return err
		}
		res.Render(out, 60)
		return writeCSV(csvDir, "figure1.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}},
	{"table4", func(out io.Writer, opt experiments.Options, csvDir string) error {
		res, err := experiments.RunTable4(opt)
		if err != nil {
			return err
		}
		res.Render(out)
		return writeCSV(csvDir, "table4.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}},
	{"figure2", func(out io.Writer, opt experiments.Options, csvDir string) error {
		res, err := experiments.RunFigure2(opt)
		if err != nil {
			return err
		}
		res.Render(out)
		return writeCSV(csvDir, "figure2.csv", func(f *os.File) error { return res.WriteCSV(f) })
	}},
	{"ablation", func(out io.Writer, opt experiments.Options, csvDir string) error {
		cells, err := experiments.BuilderAblation(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Ablation: mean error rate by ordering × histogram builder (Moreno, k=3)")
		header := []string{"method", "builder", "beta", "mean err"}
		var rows [][]string
		for _, c := range cells {
			rows = append(rows, []string{c.Method, c.Builder,
				fmt.Sprintf("%d", c.Beta), fmt.Sprintf("%.4f", c.MeanErrorRate)})
		}
		experiments.RenderTable(out, header, rows)
		return writeCSV(csvDir, "ablation.csv", func(f *os.File) error {
			return experiments.WriteAblationCSV(f, cells)
		})
	}},
	{"bounds", func(out io.Writer, opt experiments.Options, csvDir string) error {
		cells, err := experiments.OrderingBounds(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Bounds: paper orderings vs ideal, sum-L2 and product (Moreno, k=3, V-Optimal)")
		header := []string{"beta", "method", "mean err"}
		var rows [][]string
		for _, c := range cells {
			rows = append(rows, []string{fmt.Sprintf("%d", c.Beta), c.Method,
				fmt.Sprintf("%.4f", c.MeanErrorRate)})
		}
		experiments.RenderTable(out, header, rows)
		return writeCSV(csvDir, "bounds.csv", func(f *os.File) error {
			return experiments.WriteBoundsCSV(f, cells)
		})
	}},
	{"workload", func(out io.Writer, opt experiments.Options, csvDir string) error {
		cells, err := experiments.WorkloadAccuracy(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Workload accuracy: mean error rate by query workload × ordering (Moreno, k=3)")
		header := []string{"workload", "method", "beta", "mean err", "mean q-err"}
		var rows [][]string
		for _, c := range cells {
			rows = append(rows, []string{c.Workload, c.Method, fmt.Sprintf("%d", c.Beta),
				fmt.Sprintf("%.4f", c.MeanErrorRate), fmt.Sprintf("%.2f", c.MeanQError)})
		}
		experiments.RenderTable(out, header, rows)
		return writeCSV(csvDir, "workload.csv", func(f *os.File) error {
			return experiments.WriteWorkloadCSV(f, cells)
		})
	}},
	{"correlation", func(out io.Writer, opt experiments.Options, csvDir string) error {
		cells, err := experiments.CorrelationSweep(opt, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Correlation sweep: label–degree coupling vs mean error rate (Moreno family, k=3)")
		header := []string{"coupling", "method", "beta", "mean err"}
		var rows [][]string
		for _, c := range cells {
			rows = append(rows, []string{fmt.Sprintf("%.2f", c.Coupling), c.Method,
				fmt.Sprintf("%d", c.Beta), fmt.Sprintf("%.4f", c.MeanErrorRate)})
		}
		experiments.RenderTable(out, header, rows)
		fmt.Fprintln(out, "\nsum-based advantage (best rival error / sum-based error; >1 = sum-based wins):")
		adv := experiments.SumBasedAdvantage(cells)
		for _, c := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			if r, ok := adv[c]; ok {
				fmt.Fprintf(out, "  coupling %.2f: %.2fx\n", c, r)
			}
		}
		return writeCSV(csvDir, "correlation.csv", func(f *os.File) error {
			return experiments.WriteCorrelationCSV(f, cells)
		})
	}},
	{"plans", func(out io.Writer, opt experiments.Options, csvDir string) error {
		cells, err := experiments.PlanQuality(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Plan quality: join planning from histogram estimates — k zig-zag plans and the bushy tree space per length-4 query, statistics bounded at k=3 (Moreno)")
		header := []string{"method", "beta", "zigzag agree", "zigzag work", "tree agree", "tree work"}
		var rows [][]string
		for _, c := range cells {
			rows = append(rows, []string{c.Method, fmt.Sprintf("%d", c.Beta),
				fmt.Sprintf("%.3f", c.Agreement), fmt.Sprintf("%.3f", c.WorkRatio),
				fmt.Sprintf("%.3f", c.TreeAgreement), fmt.Sprintf("%.3f", c.TreeWorkRatio)})
		}
		experiments.RenderTable(out, header, rows)
		if len(cells) > 0 {
			fmt.Fprintf(out, "\nbushy oracle wins (best tree strictly beats best zig-zag): %.3f of queries\n",
				cells[0].OracleBushyWins)
			fmt.Fprintf(out, "cache-aware bushy wins (exact planner, length-2 segments warm): %.3f of queries\n",
				cells[0].CacheBushyWins)
		}
		return writeCSV(csvDir, "plans.csv", func(f *os.File) error {
			return experiments.WritePlanCSV(f, cells)
		})
	}},
	{"profile", func(out io.Writer, opt experiments.Options, _ string) error {
		rows, err := experiments.ErrorProfiles(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Error profile: mean error rate by path length and selectivity decile (Moreno, k=3)")
		header := []string{"method", "axis", "bucket", "paths", "mean err"}
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Method, r.Axis, fmt.Sprintf("%d", r.Bucket),
				fmt.Sprintf("%d", r.Paths), fmt.Sprintf("%.4f", r.MeanErrorRate)})
		}
		experiments.RenderTable(out, header, cells)
		return nil
	}},
}

// names lists the registry's experiment names in order.
func names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// run runs the named experiment, or every one of the registry for "all".
func run(exp string, opt experiments.Options, csvDir string) error {
	out := os.Stdout
	if exp == "all" {
		for _, e := range registry {
			fmt.Fprintf(out, "\n================ %s ================\n", e.name)
			if err := e.run(out, opt, csvDir); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range registry {
		if e.name == exp {
			return e.run(out, opt, csvDir)
		}
	}
	return fmt.Errorf("unknown experiment %q (have all, %s)", exp, strings.Join(names(), ", "))
}
