package experiments

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/pathsel"
)

// This file measures multi-core scaling end to end — the committed
// BENCH_scaling.json artifact (ROADMAP item: demonstrate worker scaling
// in an artifact, not just in the machinery). One report carries a
// worker ladder for each layer where parallelism enters: the sharded
// join executor (scaling/exec), the batch API's query-level concurrency
// over a shared segment cache, cold and warm (scaling/cache-*), and the
// serving layer's request concurrency against one warm server
// (scaling/serve-warm). Every rung's speedup is against the same
// section's 1-worker rung, so the ladder reads as a scaling curve. The
// report header's num_cpu/gomaxprocs say whether the curve can climb at
// all: on a 1-core host every rung times the same serial execution plus
// coordination overhead, which is why the CI gate compares these rows
// only across matching num_cpu (cmd/benchdiff skips the rest).

// scalingConcurrencies are the ladder rungs every section measures; the
// resolved workers override joins them, deduplicated, as in the other
// scaling sections (parexec, bushyexec).
var scalingConcurrencies = []int{1, 2, 4}

// scalingLadder is the shared rung set: the fixed {1, 2, 4} plus the
// resolved override.
func scalingLadder(workers int) []int {
	return append(append([]int(nil), scalingConcurrencies...), workers)
}

// scalingExecResults is the executor ladder: every ExecBenchQueries plan
// at each worker count, speedup against the sequential rung. The same
// measurement as parexec/forward but run at the scaling bench's iters,
// alongside the other layers, so one artifact answers "which layer stops
// scaling first".
func scalingExecResults(g *graph.CSR, iters, workers int) []PerfResult {
	execIters := iters * 5
	// Warm the graph's lazy operands outside the timed region so the
	// 1-worker baseline is not charged for one-time construction.
	for _, q := range ExecBenchQueries {
		must(exec.Run(g, startPlan(q, 0), exec.Options{Workers: 1}))
	}
	return workerLadder(scalingLadder(workers),
		PerfResult{Name: "scaling/exec", Dataset: serveBenchDataset, Iters: execIters},
		func(w int) int64 {
			opt := exec.Options{Workers: w}
			return timeOp(execIters, func() {
				for _, q := range ExecBenchQueries {
					must(exec.Run(g, startPlan(q, 0), opt))
				}
			})
		})
}

// scalingCacheResults is the batch ladder: the cache bench's
// repeated-segment workload executed with BatchOptions.Workers at each
// rung — query-level concurrency, each query's own join steps
// single-threaded, exactly the regime the read-locked cache shards serve.
// Two rows per rung set:
//
//   - scaling/cache-cold — caching disabled: pure batch-parallelism
//     scaling, no shared mutable state beyond the pool.
//   - scaling/cache-warm — a persistent cache warmed by one untimed
//     pass: every worker hits the same hot shards concurrently, which is
//     the contention the relcache RWMutex conversion targets.
func scalingCacheResults(g *pathsel.Graph, iters, workers int) ([]PerfResult, error) {
	queries := CacheBenchWorkload(g.Labels(), CacheBenchQueryCount)
	build := func(cacheBytes int64) (*pathsel.Estimator, error) {
		return pathsel.Build(g, pathsel.Config{
			MaxPathLength: 3,
			Buckets:       32,
			Workers:       1,
			CacheBytes:    cacheBytes,
		})
	}
	run := func(e *pathsel.Estimator, opt pathsel.BatchOptions) error {
		res, err := e.ExecuteBatch(queries, opt)
		if err != nil {
			return err
		}
		if len(res.Results) != len(queries) {
			return fmt.Errorf("scaling bench: %d results for %d queries", len(res.Results), len(queries))
		}
		return nil
	}
	passIters := iters * 3
	var firstErr error
	timePass := func(e *pathsel.Estimator, opt pathsel.BatchOptions) int64 {
		return timeOp(passIters, func() {
			if err := run(e, opt); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}

	cold, err := build(0)
	if err != nil {
		return nil, err
	}
	// Untimed warmup: build the graph's lazy operands before any timed
	// rung (the 1-worker baseline runs first).
	if err := run(cold, pathsel.BatchOptions{CacheBytes: -1}); err != nil {
		return nil, err
	}
	out := workerLadder(scalingLadder(workers),
		PerfResult{Name: "scaling/cache-cold", Dataset: serveBenchDataset, K: 3, Iters: passIters},
		func(w int) int64 {
			return timePass(cold, pathsel.BatchOptions{CacheBytes: -1, Workers: w})
		})

	warm, err := build(pathsel.DefaultCacheBytes)
	if err != nil {
		return nil, err
	}
	if err := run(warm, pathsel.BatchOptions{}); err != nil {
		return nil, err
	}
	out = append(out, workerLadder(scalingLadder(workers),
		PerfResult{Name: "scaling/cache-warm", Dataset: serveBenchDataset, K: 3, Iters: passIters},
		func(w int) int64 {
			return timePass(warm, pathsel.BatchOptions{Workers: w})
		})...)
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// scalingServeResults is the serving ladder: one server over one warm
// persistent cache, the serve bench's Zipf trace replayed at each
// request-concurrency rung (the Workers column carries the concurrency,
// as in BENCH_serve.json). NsPerOp is the averaged whole-pass wall
// clock; the final pass's latency percentiles and QPS ride along.
// Speedup against the concurrency-1 rung is the artifact's answer to
// whether request concurrency recovers the cache win on real cores.
func scalingServeResults(g *pathsel.Graph, iters, workers int) ([]PerfResult, error) {
	trace, err := serveBenchTrace(g.Labels(), ServeBenchQueryCount, 1)
	if err != nil {
		return nil, err
	}
	url, stop, err := startServeBench(g, pathsel.DefaultCacheBytes)
	if err != nil {
		return nil, err
	}
	defer stop()
	run := func(concurrency int) (*serve.LoadReport, error) {
		rep, err := serve.RunLoad(url, trace, serve.LoadOptions{Concurrency: concurrency})
		if err != nil {
			return nil, err
		}
		if bad := int64(rep.Queries) - rep.OK; bad != 0 {
			return nil, fmt.Errorf("scaling bench: %d of %d requests not OK at concurrency %d",
				bad, rep.Queries, concurrency)
		}
		return rep, nil
	}
	// Untimed warming replay: the persistent cache is hot before the
	// first rung, so every rung measures the same steady state.
	if _, err := run(1); err != nil {
		return nil, err
	}

	var out []PerfResult
	var base int64
	seen := map[int]bool{}
	for _, c := range scalingLadder(workers) {
		if c < 1 || seen[c] {
			continue
		}
		seen[c] = true
		var ns int64
		var last *serve.LoadReport
		for i := 0; i < iters; i++ {
			rep, err := run(c)
			if err != nil {
				return nil, err
			}
			ns += rep.ElapsedNs
			last = rep
		}
		ns /= int64(iters)
		if last.HitRate() == 0 {
			return nil, fmt.Errorf("scaling bench: warm pass at concurrency %d saw no cache hits", c)
		}
		r := PerfResult{Name: "scaling/serve-warm", Dataset: serveBenchDataset, K: 3,
			Workers: c, Iters: iters, NsPerOp: ns,
			P50Ns: last.Service.P50Ns, P95Ns: last.Service.P95Ns,
			P99Ns: last.Service.P99Ns, QPS: last.QPS}
		if base == 0 {
			base = ns
		} else {
			r.Speedup = float64(base) / float64(ns)
		}
		out = append(out, r)
	}
	return out, nil
}

// RunScalingBench measures every layer's worker/concurrency ladder — the
// BENCH_scaling.json artifact: the sharded executor, cold and warm batch
// execution, and warm serving, each at workers ∈ {1, 2, 4} plus the
// resolved override. scale/iters default to 0.05/3 when ≤ 0; workers ≤ 0
// selects GOMAXPROCS (re-read at call time).
func RunScalingBench(scale float64, iters, workers int) (*PerfReport, error) {
	scale, iters, workers = benchDefaults(scale, iters, workers)
	pg, err := genServeGraph(scale)
	if err != nil {
		return nil, err
	}
	rep := newPerfReport(scale, workers)
	rep.Results = scalingExecResults(benchSnapFF(scale), iters, workers)
	cacheRows, err := scalingCacheResults(pg, iters, workers)
	if err != nil {
		return nil, err
	}
	rep.Results = append(rep.Results, cacheRows...)
	serveRows, err := scalingServeResults(pg, iters, workers)
	if err != nil {
		return nil, err
	}
	rep.Results = append(rep.Results, serveRows...)
	return rep, nil
}
