// Command pathhist builds a label-path histogram over a graph file and
// answers selectivity queries, printing estimate vs exact for each query
// path given as an argument. A built synopsis can be persisted with -save
// and later queried without the graph via -load. The exact answers come
// from the graph: each query path is evaluated on it, and -evaluate counts
// the whole census a second time, since the built estimator keeps only the
// histogram and the graph.
//
// Usage:
//
//	pathhist -graph moreno.txt -k 3 -ordering sum-based -buckets 64 knows/likes likes
//	pathhist -graph moreno.txt -k 3 -evaluate            # whole-domain accuracy
//	pathhist -graph moreno.txt -k 3 -save stats.psh      # persist the synopsis
//	pathhist -load stats.psh knows/likes                 # estimate without the graph
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/pathsel"
)

func main() {
	graphFile := flag.String("graph", "", "edge-list file (src dst label per line)")
	k := flag.Int("k", 3, "maximum path length")
	method := flag.String("ordering", pathsel.OrderingSumBased, "domain ordering: num-alph, num-card, lex-alph, lex-card, sum-based")
	builder := flag.String("histogram", pathsel.HistogramVOptimal, "histogram builder: v-optimal, equi-width, equi-depth, max-diff")
	buckets := flag.Int("buckets", 64, "bucket budget β")
	evaluate := flag.Bool("evaluate", false, "report whole-domain accuracy instead of answering queries")
	save := flag.String("save", "", "write the built synopsis to this file")
	load := flag.String("load", "", "answer queries from a saved synopsis (no -graph needed)")
	flag.Parse()

	var err error
	if *load != "" {
		err = runLoaded(*load, flag.Args())
	} else {
		err = run(*graphFile, *k, *method, *builder, *buckets, *evaluate, *save, flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathhist:", err)
		os.Exit(1)
	}
}

func runLoaded(path string, queries []string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ce, err := pathsel.LoadEstimator(f)
	if err != nil {
		return err
	}
	fmt.Printf("synopsis: %s ordering, %d buckets, k=%d, labels %v\n",
		ce.Ordering(), ce.Buckets(), ce.MaxPathLength(), ce.Labels())
	if len(queries) == 0 {
		return fmt.Errorf("no query paths given")
	}
	for _, q := range queries {
		e, err := ce.Estimate(q)
		if err != nil {
			return err
		}
		fmt.Printf("%-30s estimate=%10.2f\n", q, e)
	}
	return nil
}

func run(graphFile string, k int, method, builder string, buckets int, evaluate bool, save string, queries []string) error {
	if graphFile == "" {
		return fmt.Errorf("-graph is required (or -load)")
	}
	f, err := os.Open(graphFile)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := pathsel.LoadEdgeList(f)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges, labels %v\n", g.NumVertices(), g.NumEdges(), g.Labels())

	est, err := pathsel.Build(g, pathsel.Config{
		MaxPathLength: k,
		Ordering:      method,
		Histogram:     builder,
		Buckets:       buckets,
	})
	if err != nil {
		return err
	}
	fmt.Printf("histogram: %s over %s domain, %d buckets for %d paths\n",
		builder, est.Ordering(), est.Buckets(), est.DomainSize())

	if save != "" {
		out, err := os.Create(save)
		if err != nil {
			return err
		}
		if err := est.Save(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		info, err := os.Stat(save)
		if err != nil {
			return err
		}
		fmt.Printf("saved synopsis to %s (%d bytes)\n", save, info.Size())
	}
	if evaluate {
		acc := est.Evaluate()
		fmt.Printf("mean error rate: %.4f\nmean q-error:   %.3f\nmax |err|:      %.4f\npaths evaluated: %d\n",
			acc.MeanErrorRate, acc.MeanQError, acc.MaxAbsError, acc.Paths)
		return nil
	}
	if len(queries) == 0 {
		if save != "" {
			return nil
		}
		return fmt.Errorf("no query paths given (or use -evaluate)")
	}
	for _, q := range queries {
		e, err := est.Estimate(q)
		if err != nil {
			return err
		}
		truth, err := est.TrueSelectivity(q)
		if err != nil {
			return err
		}
		fmt.Printf("%-30s estimate=%10.2f exact=%8d\n", q, e, truth)
	}
	return nil
}
