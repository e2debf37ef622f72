package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/pathsel"
)

// This file measures the regular-path-query pipeline (pathsel.Compile →
// exec.Run): cold-vs-warm throughput of an RPQ workload whose bounded
// repetitions share relation-cache entries with each other and with
// concrete queries, plus the compiled DAG's estimate
// quality against the enumerated-expansion oracle — emitted as the
// committed BENCH_rpq.json artifact.

// RPQBenchWorkload builds the RPQ workload: patterns mixing bounded
// repetition (whose unrolled powers b², b³ publish under the same
// repeated-label cache keys concrete queries use), grouped alternation,
// optionals, and wildcards, all matching paths of length ≤ 3. labels is
// the graph's vocabulary; only the first min(4, len(labels)) labels are
// used so the workload fits every Table 3 dataset.
func RPQBenchWorkload(labels []string) []string {
	l := func(i int) string { return labels[i%len(labels)] }
	return []string{
		l(0) + "{1,3}",
		l(1) + "{1,3}",
		"(" + l(0) + "|" + l(1) + ")/" + l(2),
		l(0) + "/(" + l(1) + "|" + l(2) + ")/" + l(3) + "?",
		l(1) + "{2}/" + l(0),
		l(0) + "?/" + l(1) + "/" + l(2),
		"*/" + l(0),
		l(2) + "/" + l(1) + "{1,2}",
	}
}

// rpqBenchResults measures one dataset's RPQ workload three ways:
//
//   - rpq/cold — caching disabled: every repetition unrolls from
//     scratch. The baseline row.
//   - rpq/warm — a persistent cache warmed by one untimed pass: the
//     unrolled powers and shared segments are adopted instead of
//     recomputed. CacheHits/CacheMisses record one steady-state pass's
//     traffic — nonzero hits are the repetition-unroll sharing claim
//     (exec.TestExecuteDagRepetitionSharesCache pins the mechanism;
//     this row prices it).
//   - rpq/estimate — Compile + Estimate over the pool; QError is the
//     mean q-error of the compiled estimate against the exact
//     bag-semantics oracle (TruePatternBagSelectivity), +1-smoothed so
//     empty patterns cannot divide by zero.
func rpqBenchResults(name string, scale float64, iters, workers int) ([]PerfResult, error) {
	s := 2 * scale
	if s > 1 {
		s = 1
	}
	g, err := pathsel.GenerateDataset(name, s, 1)
	if err != nil {
		return nil, err
	}
	patterns := RPQBenchWorkload(g.Labels())
	build := func(cacheBytes int64) (*pathsel.Estimator, error) {
		return pathsel.Build(g, pathsel.Config{
			MaxPathLength: 3,
			Buckets:       32,
			Workers:       workers,
			CacheBytes:    cacheBytes,
		})
	}
	cold, err := build(0)
	if err != nil {
		return nil, err
	}
	warm, err := build(pathsel.DefaultCacheBytes)
	if err != nil {
		return nil, err
	}
	compileAll := func(e *pathsel.Estimator) ([]*pathsel.Expr, error) {
		xs := make([]*pathsel.Expr, len(patterns))
		for i, p := range patterns {
			x, err := e.Compile(p)
			if err != nil {
				return nil, fmt.Errorf("rpq bench: compiling %q: %w", p, err)
			}
			xs[i] = x
		}
		return xs, nil
	}
	coldXs, err := compileAll(cold)
	if err != nil {
		return nil, err
	}
	warmXs, err := compileAll(warm)
	if err != nil {
		return nil, err
	}
	run := func(e *pathsel.Estimator, xs []*pathsel.Expr, opt pathsel.BatchOptions) (*pathsel.BatchResult, error) {
		res, err := e.ExecuteExprBatchCtx(context.Background(), xs, opt)
		if err != nil {
			return nil, err
		}
		for i, r := range res.Results {
			if r.Err != nil {
				return nil, fmt.Errorf("rpq bench: query %q: %w", patterns[i], r.Err)
			}
		}
		return res, nil
	}

	passIters := iters * 3
	var out []PerfResult
	var firstErr error
	timePass := func(e *pathsel.Estimator, xs []*pathsel.Expr, opt pathsel.BatchOptions) int64 {
		return timeOp(passIters, func() {
			if _, err := run(e, xs, opt); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}

	// Warm the graph's lazy operands outside the timed region, as every
	// other bench section does.
	if _, err := run(cold, coldXs, pathsel.BatchOptions{CacheBytes: -1}); err != nil {
		return nil, err
	}
	coldNs := timePass(cold, coldXs, pathsel.BatchOptions{CacheBytes: -1})
	out = append(out, PerfResult{Name: "rpq/cold", Dataset: name, K: 3,
		Workers: workers, Iters: passIters, NsPerOp: coldNs})

	// Warm the persistent cache once, untimed, then measure steady
	// state; a final untimed pass snapshots one pass's cache traffic.
	if _, err := run(warm, warmXs, pathsel.BatchOptions{}); err != nil {
		return nil, err
	}
	warmNs := timePass(warm, warmXs, pathsel.BatchOptions{})
	traffic, err := run(warm, warmXs, pathsel.BatchOptions{})
	if err != nil {
		return nil, err
	}
	var hits, misses int64
	for _, r := range traffic.Results {
		hits += int64(r.CacheHits)
		misses += int64(r.CacheMisses)
	}
	out = append(out, PerfResult{Name: "rpq/warm", Dataset: name, K: 3,
		Workers: workers, Iters: passIters, NsPerOp: warmNs,
		Speedup:   float64(coldNs) / float64(warmNs),
		CacheHits: hits, CacheMisses: misses})

	// Estimate quality: the compiled estimate against the enumerated
	// exact bag oracle, and the cost of the Compile+Estimate round trip.
	var qsum float64
	for _, p := range patterns {
		est, err := cold.EstimatePattern(p)
		if err != nil {
			return nil, err
		}
		truth, err := g.TruePatternBagSelectivity(p)
		if err != nil {
			return nil, err
		}
		qsum += math.Max((est+1)/(float64(truth)+1), (float64(truth)+1)/(est+1))
	}
	estNs := timeOp(passIters, func() {
		for _, p := range patterns {
			if _, err := cold.EstimatePattern(p); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})
	out = append(out, PerfResult{Name: "rpq/estimate", Dataset: name, K: 3,
		Workers: workers, Iters: passIters, NsPerOp: estNs,
		QError: qsum / float64(len(patterns))})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// RunRPQBench measures only the RPQ section — the BENCH_rpq.json
// artifact: cold vs warm compiled-workload passes (with the warm pass's
// cache traffic) and estimate quality, on the cache bench's two
// datasets. scale/iters default to 0.05/3 when ≤ 0; workers ≤ 0 selects
// GOMAXPROCS.
func RunRPQBench(scale float64, iters, workers int) (*PerfReport, error) {
	scale, iters, workers = benchDefaults(scale, iters, workers)
	rep := newPerfReport(scale, workers)
	for _, name := range cacheBenchDatasets {
		rows, err := rpqBenchResults(name, scale, iters, workers)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, rows...)
	}
	return rep, nil
}
