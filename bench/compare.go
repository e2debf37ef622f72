package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of compare, one per workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// readResultSet reads a result-set file — one result per line, as -json
// appends them — and groups the untraced runs' metric values by workload.
func readResultSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d was not correct", path, line, r.Workload, r.Seed)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], v.Value)
		}
	}
	return set, sc.Err()
}

// verdict applies one metric's bound to a baseline and a candidate
// sample. The medians decide; when either side's own run-to-run spread
// (interquartile distance over median) is wider than the bound the
// comparison cannot resolve a change of that size and says so.
func verdict(d metricDef, base, cand []float64) (string, float64) {
	mb, mc := median(base), median(cand)
	var change float64 // positive is worse
	if mb != 0 {
		change = (mc - mb) / mb
		if !d.lowerBetter {
			change = -change
		}
	}
	switch {
	case quartileSpread(base) > d.bound || quartileSpread(cand) > d.bound:
		return verdictUnresolved, change
	case change > d.bound:
		return verdictRegressed, change
	case change < -d.bound:
		return verdictImproved, change
	}
	return verdictOK, change
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 when any row regressed or could not be resolved.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResultSet(basePath)
	if err == nil {
		var cand map[string]map[string][]float64
		if cand, err = readResultSet(candPath); err == nil {
			return compareSets(base, cand, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareSets(base, cand map[string]map[string][]float64, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "baseline", "candidate", "worse", "spreadA", "spreadB", "verdict")
	for _, sp := range workloads {
		for _, d := range endToEnd {
			b, c := base[sp.name][d.name], cand[sp.name][d.name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, change := verdict(d, b, c)
			if v == verdictRegressed || v == verdictUnresolved {
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.6g %14.6g %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				sp.name, d.name, median(b), median(c),
				change*100, quartileSpread(b)*100, quartileSpread(c)*100, v)
		}
	}
	return code
}
