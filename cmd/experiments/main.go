// Command experiments reproduces the paper's evaluation tables and
// figures. By default it runs every experiment at a reduced dataset scale
// (same code paths, smaller graphs — see internal/dataset); -full switches to
// the published parameters (slow: the Figure 2 sweep recomputes exact
// selectivity censuses at k = 6 on ~200k-edge graphs).
//
// Usage:
//
//	experiments [-exp all|tables12|figure1|table3|table4|figure2|ablation|bounds]
//	            [-scale 0.04] [-seed 1] [-full] [-csv DIR] [-workers N]
//
// With -csv, each experiment additionally writes a machine-readable CSV
// file (table4.csv, figure2.csv, …) into DIR for plotting.
//
// The -bench-json, -bench-exec-json, -bench-par-exec-json,
// -bench-bushy-json, -bench-cache-json, -bench-serve-json,
// -bench-scaling-json, and -bench-rpq-json flags instead emit the
// committed BENCH_*.json perf
// artifacts (schema in docs/benchmarks.md) and exit; -workers N
// overrides the worker count of every bench emitter (default GOMAXPROCS,
// resolved when the bench runs; the serve bench ignores it — its rows
// are keyed by request concurrency instead). -cpuprofile FILE wraps
// whatever runs — bench emitters or experiments — in a CPU profile for
// regression triage (the CI scaling leg uploads these as artifacts).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, tables12, figure1, table3, table4, figure2, ablation, bounds, workload")
	scale := flag.Float64("scale", 0, "dataset scale in (0,1]; 0 = configuration default")
	seed := flag.Int64("seed", 1, "generator seed")
	full := flag.Bool("full", false, "use the paper's published parameters (slow)")
	csvDir := flag.String("csv", "", "directory to write CSV result files into (created if missing)")
	ds := flag.String("dataset", "", "restrict figure2/table3 to one Table 3 dataset name")
	maxK := flag.Int("maxk", 0, "cap the accuracy sweep's path length bound (0 = configuration default)")
	benchJSON := flag.String("bench-json", "", "run the full census/compose/exec perf bench and write a BENCH JSON report to this file, then exit")
	benchExecJSON := flag.String("bench-exec-json", "", "run only the query-execution perf bench and write a BENCH JSON report to this file, then exit")
	benchParExecJSON := flag.String("bench-par-exec-json", "", "run only the parallel-executor scaling bench and write a BENCH JSON report to this file, then exit")
	benchBushyJSON := flag.String("bench-bushy-json", "", "run only the bushy-plan/join-kernel perf bench and write a BENCH JSON report to this file, then exit")
	benchCacheJSON := flag.String("bench-cache-json", "", "run only the segment-relation cache workload bench (cold vs warm) and write a BENCH JSON report to this file, then exit")
	benchServeJSON := flag.String("bench-serve-json", "", "run only the serving-layer load bench (cold vs warm Zipf passes over HTTP) and write a BENCH JSON report to this file, then exit")
	benchScalingJSON := flag.String("bench-scaling-json", "", "run the cross-layer worker-scaling bench (exec, batch cache, serving ladders at workers 1/2/4) and write a BENCH JSON report to this file, then exit")
	benchRPQJSON := flag.String("bench-rpq-json", "", "run only the regular-path-query bench (cold vs warm compiled workload, estimate quality vs the enumerated oracle) and write a BENCH JSON report to this file, then exit")
	benchOverloadJSON := flag.String("bench-overload-json", "", "run only the overload-resilience bench (controlled vs uncontrolled bursty overdrive legs) and write a BENCH JSON report to this file, then exit")
	benchIters := flag.Int("bench-iters", 3, "iterations per perf-bench measurement")
	// Default 0, not a captured GOMAXPROCS: the count resolves through
	// sched.WorkerCount when the bench runs, so a GOMAXPROCS change after
	// process start (container managers do this) is honored.
	workers := flag.Int("workers", 0, "worker-goroutine override for all bench emitters (pathsel.Config.Workers semantics: ≤ 0 means GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	// die flushes the profile before os.Exit, which skips the defer above.
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		pprof.StopCPUProfile()
		os.Exit(1)
	}

	for _, b := range []struct {
		path string
		run  func() (*experiments.PerfReport, error)
	}{
		{*benchJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunPerfBench(*scale, *benchIters, *workers), nil
		}},
		{*benchExecJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunExecBench(*scale, *benchIters, *workers), nil
		}},
		{*benchParExecJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunParExecBench(*scale, *benchIters, *workers), nil
		}},
		{*benchBushyJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunBushyBench(*scale, *benchIters, *workers), nil
		}},
		{*benchCacheJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunCacheBench(*scale, *benchIters, *workers)
		}},
		{*benchServeJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunServeBench(*scale, *benchIters)
		}},
		{*benchScalingJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunScalingBench(*scale, *benchIters, *workers)
		}},
		{*benchRPQJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunRPQBench(*scale, *benchIters, *workers)
		}},
		{*benchOverloadJSON, func() (*experiments.PerfReport, error) {
			return experiments.RunOverloadBench(*scale, *benchIters)
		}},
	} {
		if b.path == "" {
			continue
		}
		// Open the output before the (slow) measurement so a bad path
		// fails fast.
		f, err := os.Create(b.path)
		if err == nil {
			var rep *experiments.PerfReport
			if rep, err = b.run(); err == nil {
				err = rep.WriteJSON(f)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			die(err)
		}
		fmt.Printf("wrote perf bench report to %s\n", b.path)
	}
	if *benchJSON != "" || *benchExecJSON != "" || *benchParExecJSON != "" ||
		*benchBushyJSON != "" || *benchCacheJSON != "" || *benchServeJSON != "" ||
		*benchScalingJSON != "" || *benchRPQJSON != "" || *benchOverloadJSON != "" {
		return
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
		var ks []int
		for _, k := range opt.AccuracyKs {
			if k <= *maxK {
				ks = append(ks, k)
			}
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

func run(exp string, opt experiments.Options, csvDir string) error {
	out := os.Stdout
	runOne := func(name string) error {
		switch name {
		case "tables12":
			experiments.RunTables12().Render(out)
		case "figure1":
			res, err := experiments.RunFigure1(opt)
			if err != nil {
				return err
			}
			res.Render(out, 60)
			return writeCSV(csvDir, "figure1.csv", func(f *os.File) error { return res.WriteCSV(f) })
		case "table3":
			rows, err := experiments.RunTable3(opt)
			if err != nil {
				return err
			}
			experiments.RenderTable3(out, rows)
		case "table4":
			res, err := experiments.RunTable4(opt)
			if err != nil {
				return err
			}
			res.Render(out)
			return writeCSV(csvDir, "table4.csv", func(f *os.File) error { return res.WriteCSV(f) })
		case "figure2":
			res, err := experiments.RunFigure2(opt)
			if err != nil {
				return err
			}
			res.Render(out)
			return writeCSV(csvDir, "figure2.csv", func(f *os.File) error { return res.WriteCSV(f) })
		case "ablation":
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
		case "workload":
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
		case "profile":
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
		case "plans":
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
		case "correlation":
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
		case "bounds":
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
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if exp != "all" {
		return runOne(exp)
	}
	for _, name := range []string{"tables12", "table3", "figure1", "table4", "figure2", "ablation", "bounds", "workload", "correlation", "plans", "profile"} {
		fmt.Fprintf(out, "\n================ %s ================\n", name)
		if err := runOne(name); err != nil {
			return err
		}
	}
	return nil
}
