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
// -h lists the experiment names. -csv writes every table of the
// experiments run into DIR as <table>.csv (table4.csv, figure2.csv, …) for
// plotting.
//
// It measures accuracy and plan quality, not speed: speed is bench/'s job
// (bench/README.md).
package main

import (
	"flag"
	"fmt"
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

// writeCSV writes t as DIR/<t.Name>.csv.
func writeCSV(dir string, t *experiments.Table) error {
	f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// names lists the registry's experiment names in order.
func names() []string {
	out := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		out[i] = e.Name
	}
	return out
}

// run runs the named experiment, or every one of the registry for "all":
// it prints each result and, when csvDir is set, writes each of its
// tables there.
func run(exp string, opt experiments.Options, csvDir string) error {
	found := false
	for _, e := range experiments.Experiments {
		if exp != "all" && e.Name != exp {
			continue
		}
		found = true
		if exp == "all" {
			fmt.Printf("\n================ %s ================\n", e.Name)
		}
		res, err := e.Run(opt)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		if csvDir == "" {
			continue
		}
		for _, t := range res.Tables() {
			if err := writeCSV(csvDir, t); err != nil {
				return err
			}
		}
	}
	if !found {
		return fmt.Errorf("unknown experiment %q (have all, %s)", exp, strings.Join(names(), ", "))
	}
	return nil
}
