package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric, as BENCHMARK.json does.
type metricDef struct {
	name, unit string
	// lowerBetter is the direction of improvement.
	lowerBetter bool
	// bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before it counts as a regression; per-layer
	// metrics have none.
	bound float64
	what  string
}

// endToEnd lists the metrics a user of the system sees, the same on
// every workload. A test keeps BENCHMARK.json equal to this table.
var endToEnd = []metricDef{
	{"setup_s", "s", true, 0.25, "dataset generation, pathsel.Build, handle compilation, listener start and warm-up; median over the run's repeated set-ups"},
	{"throughput_ops_s", "ops/s", false, 0.25, "operations completed per second by all clients; median over the window's slices"},
	{"latency_p50_us", "us", true, 0.25, "operation issued to answer verified, median; median over the window's slices"},
	{"latency_p99_us", "us", true, 0.25, "the same, 99th percentile; median over the window's slices"},
	{"live_heap_mb", "MiB", true, 0.10, "HeapAlloc after the window and two forced GCs: statistics, cache contents and pools"},
	{"mean_q_error", "ratio", true, 0.001, "Estimator.Evaluate().MeanQError over all of L_k: the paper's accuracy; deterministic"},
	{"summary_bytes", "B", true, 0.001, "length of Estimator.Save's output: the histogram's footprint; deterministic"},
}

// perLayer lists the traced run's metrics, <module>.<metric>. A layer a
// workload does not run reports 0.
var perLayer = []metricDef{
	{name: "dataset.generate_ms", unit: "ms", lowerBetter: true, what: "dataset.Generate"},
	{name: "graph.freeze_ms", unit: "ms", lowerBetter: true, what: "Graph.Freeze"},
	{name: "graph.operands_ms", unit: "ms", lowerBetter: true, what: "forcing every LabelOperand and PredecessorOperand"},
	{name: "paths.census_ms", unit: "ms", lowerBetter: true, what: "paths.NewCensusHybrid"},
	{name: "paths.census_paths", unit: "count", lowerBetter: false, what: "|L_k|, the paths the census counted"},
	{name: "paths.census_ns_per_path", unit: "ns", lowerBetter: true, what: "census time per path"},
	{name: "ordering.build_ms", unit: "ms", lowerBetter: true, what: "ordering.ForGraph"},
	{name: "ordering.index_ns", unit: "ns", lowerBetter: true, what: "Ordering.Index per concrete pool path"},
	{name: "histogram.find_ns", unit: "ns", lowerBetter: true, what: "histogram Estimate(idx) per concrete pool path"},
	{name: "histogram.buckets", unit: "count", lowerBetter: true, what: "realized bucket count"},
	{name: "core.build_ms", unit: "ms", lowerBetter: true, what: "core.Build: domain vector plus bucket construction"},
	{name: "core.estimate_ns", unit: "ns", lowerBetter: true, what: "PathHistogram.Estimate per concrete pool path"},
	{name: "core.mean_error_rate", unit: "ratio", lowerBetter: true, what: "core.Evaluate().MeanErrorRate, the paper's Figure 2 metric"},
	{name: "exec.plan_ns", unit: "ns", lowerBetter: true, what: "one planning of the operation's query: Costs, ChooseTreeWithCost or PlanDag"},
	{name: "exec.plan_estimator_calls", unit: "count", lowerBetter: true, what: "histogram estimates one planning asks for, mean per distinct query; exact"},
	{name: "exec.plan_regret", unit: "ratio", lowerBetter: true, what: "executed work of the chosen zig-zag start over the best start's, mean per distinct concrete query; exact"},
	{name: "exec.run_us", unit: "us", lowerBetter: true, what: "ExecutePlanChecked, ExecuteTreeChecked or ExecuteDagChecked per operation"},
	{name: "exec.work_pairs", unit: "count", lowerBetter: true, what: "intermediate pairs materialized per operation; exact"},
	{name: "exec.ns_per_work_pair", unit: "ns", lowerBetter: true, what: "run time over work pairs"},
	{name: "exec.bushy_share", unit: "ratio", lowerBetter: false, what: "operations executed as a bushy tree"},
	{name: "exec.dag_share", unit: "ratio", lowerBetter: false, what: "operations executed by the DAG executor"},
	{name: "bitset.compose_ns_per_pair", unit: "ns", lowerBetter: true, what: "ComposeInto per output pair"},
	{name: "bitset.join_ns_per_pair", unit: "ns", lowerBetter: true, what: "JoinInto per output pair"},
	{name: "bitset.reverse_ns_per_pair", unit: "ns", lowerBetter: true, what: "ReverseInto per pair"},
	{name: "bitset.copy_ns_per_pair", unit: "ns", lowerBetter: true, what: "CopyInto per pair"},
	{name: "bitset.clone_ns_per_pair", unit: "ns", lowerBetter: true, what: "Clone per pair"},
	{name: "bitset.dense_row_share", unit: "ratio", lowerBetter: false, what: "non-empty result rows in dense form"},
	{name: "sched.tasks_per_op", unit: "count", lowerBetter: true, what: "scheduler tasks per operation"},
	{name: "sched.steal_share", unit: "ratio", lowerBetter: true, what: "tasks stolen over tasks run"},
	{name: "sched.parks_per_op", unit: "count", lowerBetter: true, what: "worker parks per operation"},
	{name: "relcache.hit_rate", unit: "ratio", lowerBetter: false, what: "cache hits over lookups in the window"},
	{name: "relcache.puts_per_op", unit: "count", lowerBetter: true, what: "cache inserts per operation"},
	{name: "relcache.evictions_per_put", unit: "ratio", lowerBetter: true, what: "evictions per insert"},
	{name: "relcache.rejected", unit: "count", lowerBetter: true, what: "inserts refused as larger than a shard"},
	{name: "relcache.resident_mb", unit: "MiB", lowerBetter: true, what: "bytes cached when the window ends"},
	{name: "relcache.lock_wait_us_per_op", unit: "us", lowerBetter: true, what: "time blocked on shard locks per operation"},
	{name: "relcache.get_ns", unit: "ns", lowerBetter: true, what: "Cache.Get of a resident relation"},
	{name: "relcache.put_us", unit: "us", lowerBetter: true, what: "Cache.Put of a pool query's relation"},
	{name: "pathsel.compile_us", unit: "us", lowerBetter: true, what: "Estimator.Compile per operation"},
	{name: "pathsel.compile_self_us", unit: "us", lowerBetter: true, what: "Compile minus its planning and estimates: the parse"},
	{name: "pathsel.execute_us", unit: "us", lowerBetter: true, what: "Expr.ExecuteCtx per operation"},
	{name: "pathsel.execute_self_us", unit: "us", lowerBetter: true, what: "ExecuteCtx minus planning and the executor"},
	{name: "serve.handler_us", unit: "us", lowerBetter: true, what: "Server.ServeHTTP into an in-memory recorder"},
	{name: "serve.self_us", unit: "us", lowerBetter: true, what: "handler minus compile and execute: decode, admission, JSON encode"},
	{name: "serve.transport_us", unit: "us", lowerBetter: true, what: "HTTP round trip minus handler: net/http, TCP, client"},
	{name: "serve.response_bytes", unit: "B", lowerBetter: true, what: "response body length per request"},
	{name: "serve.non_ok", unit: "count", lowerBetter: true, what: "requests /stats does not count as ok"},
	{name: "proc.allocs_per_op", unit: "count", lowerBetter: true, what: "heap allocations per operation over the window, benchmark client included"},
	{name: "proc.alloc_bytes_per_op", unit: "B", lowerBetter: true, what: "bytes allocated per operation over the window"},
	{name: "proc.gc_cycles", unit: "count", lowerBetter: true, what: "GC cycles in the window"},
	{name: "proc.gc_pause_ms", unit: "ms", lowerBetter: true, what: "GC stop-the-world time in the window"},
	{name: "trace.overhead_share", unit: "ratio", lowerBetter: true, what: "traced over untraced single-client mean latency, minus one"},
	{name: "trace.unattributed_share", unit: "ratio", lowerBetter: true, what: "largest share of a traced operation not inside any module call: the benchmark's own work"},
	{name: "bench.failed_share", unit: "ratio", lowerBetter: true, what: "operations with an error, a non-200, a degraded or a wrong answer, over operations attempted"},
	{name: "bench.oracle_s", unit: "s", lowerBetter: true, what: "computing the exact answers; outside setup_s"},
	{name: "bench.host_speed", unit: "ratio", lowerBetter: false, what: "the host-speed reference's units per second over its nominal rate, median over the window's slices"},
}

// measured is one metric's value in a result.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the object the last line of standard
// output holds, plus — in a result-set file — which run it was.
type result struct {
	Workload  string              `json:"workload,omitempty"`
	Seed      int64               `json:"seed,omitempty"`
	Trace     bool                `json:"trace,omitempty"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	// Slices holds, for an untraced run, the per-slice values the sliced
	// metrics were reduced from.
	Slices map[string][]float64 `json:"slices,omitempty"`
}

// newResult pairs values with the units of defs. Every metric of defs
// must have a finite value.
func newResult(defs []metricDef, values map[string]float64) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite value (%v)", d.name, v)
		}
		out[d.name] = measured{Value: v, Unit: d.unit}
	}
	return out, nil
}

// printMetrics writes one "name value unit" row per metric of defs.
func printMetrics(w io.Writer, defs []metricDef, m map[string]measured, note map[string]string) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.6g %-6s %s\n", d.name, m[d.name].Value, d.unit, note[d.name])
	}
}

// lastLine renders the contract's final line: exactly the keys correct,
// attempted, failed and metrics — result's other fields are left zero,
// and so omitted.
func lastLine(r result) string {
	b, err := json.Marshal(result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	return string(b)
}
