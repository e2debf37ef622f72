package serve

import (
	"testing"
	"time"

	"repro/internal/workload"
	"repro/pathsel"
)

// buildTrace renders a deterministic Zipf trace against the test
// graph's vocabulary.
func buildTrace(t testing.TB, labels []string, n int, rate float64, seed int64) []TimedQuery {
	t.Helper()
	pool, err := workload.QueryPool(len(labels), 3, 16, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ZipfTrace(workload.TraceOptions{Pool: pool, Rate: rate, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tq, err := TraceQueries(tr, labels)
	if err != nil {
		t.Fatal(err)
	}
	return tq
}

// TestRunLoadSaturation pins the capacity-mode harness: every trace
// entry is answered, outcomes partition the trace, latency summaries
// are ordered, and a second pass over the warmed persistent cache
// reports hits.
func TestRunLoadSaturation(t *testing.T) {
	g, srv, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	trace := buildTrace(t, g.Labels(), 120, 0, 5)
	cold, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Queries != len(trace) {
		t.Fatalf("report covers %d queries, want %d", cold.Queries, len(trace))
	}
	if cold.TransportErrors != 0 {
		t.Fatalf("%d transport errors against a live server", cold.TransportErrors)
	}
	sum := cold.OK + cold.Degraded + cold.BadRequest + cold.Rejected + cold.Overload + cold.Timeout + cold.Failed
	if sum != int64(cold.Queries) {
		t.Fatalf("outcomes sum to %d, want %d: %+v", sum, cold.Queries, cold)
	}
	if cold.OK != int64(cold.Queries) {
		t.Fatalf("cold pass had %d non-OK outcomes: %+v", int64(cold.Queries)-cold.OK, cold)
	}
	if cold.QPS <= 0 || cold.ElapsedNs <= 0 {
		t.Fatalf("degenerate throughput: %+v", cold)
	}
	for _, s := range []LatencySummary{cold.Service, cold.Sojourn} {
		if !(s.P50Ns > 0 && s.P50Ns <= s.P95Ns && s.P95Ns <= s.P99Ns && s.P99Ns <= s.MaxNs) {
			t.Fatalf("latency summary out of order: %+v", s)
		}
	}
	warm, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if warm.HitRate() == 0 {
		t.Fatalf("warm pass over a persistent cache reported hit rate 0: %+v", warm)
	}
	if c := srv.Counters(); c.Requests != int64(2*len(trace)) || c.InFlight != 0 {
		t.Fatalf("server counters %+v after two %d-query passes", c, len(trace))
	}
}

// TestRunLoadOpenLoop pins the open-loop contract: the run takes at
// least as long as the trace's arrival span, and sojourn latency (which
// charges queue wait from the scheduled arrival) dominates service
// latency.
func TestRunLoadOpenLoop(t *testing.T) {
	g, _, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	trace := buildTrace(t, g.Labels(), 60, 2000, 7)
	span := trace[len(trace)-1].At
	rep, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors != 0 || rep.OK != int64(len(trace)) {
		t.Fatalf("open-loop pass not clean: %+v", rep)
	}
	if time.Duration(rep.ElapsedNs) < span {
		t.Fatalf("elapsed %v shorter than the trace's arrival span %v — the replayer closed the loop",
			time.Duration(rep.ElapsedNs), span)
	}
	if rep.Sojourn.P99Ns < rep.Service.P50Ns {
		t.Fatalf("sojourn p99 %v below service p50 %v — queue wait went uncharged",
			time.Duration(rep.Sojourn.P99Ns), time.Duration(rep.Service.P50Ns))
	}
}

func TestRunLoadEmptyTrace(t *testing.T) {
	rep, err := RunLoad("http://127.0.0.1:0", nil, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 0 {
		t.Fatalf("empty trace produced %d queries", rep.Queries)
	}
}

func TestRunLoadCountsTransportErrors(t *testing.T) {
	// A port nothing listens on: every request must be counted as a
	// transport error, none dropped, and the call itself must not fail.
	trace := []TimedQuery{{Query: "a/b"}, {Query: "b/c"}}
	rep, err := RunLoad("http://127.0.0.1:1", trace, LoadOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors != int64(len(trace)) {
		t.Fatalf("transport errors %d, want %d", rep.TransportErrors, len(trace))
	}
}

func TestTraceQueriesRejectsForeignLabels(t *testing.T) {
	tr := []workload.Arrival{{Query: []int{0, 7}}}
	if _, err := TraceQueries(tr, []string{"a", "b"}); err == nil {
		t.Fatal("TraceQueries accepted a label id outside the vocabulary")
	}
}

// TestSummarize pins the load report's latency summary: nearest-rank
// percentiles (the value at rank ⌈q·n⌉), the maximum and the truncated
// mean, whatever order the sample arrives in.
func TestSummarize(t *testing.T) {
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(len(ns) - i) // 100, 99, …, 1
	}
	got := summarize(ns)
	want := LatencySummary{P50Ns: 50, P95Ns: 95, P99Ns: 99, MaxNs: 100, MeanNs: 50}
	if got != want {
		t.Fatalf("summarize(100…1) = %+v, want %+v", got, want)
	}
}

// TestSummarizeSingle pins that every statistic of a one-value sample is
// that value.
func TestSummarizeSingle(t *testing.T) {
	want := LatencySummary{P50Ns: 7, P95Ns: 7, P99Ns: 7, MaxNs: 7, MeanNs: 7}
	if got := summarize([]int64{7}); got != want {
		t.Fatalf("summarize([7]) = %+v, want %+v", got, want)
	}
}

// TestSummarizeEmpty pins that an empty sample — a report with no answered
// request of a kind — summarizes to zeros rather than panicking.
func TestSummarizeEmpty(t *testing.T) {
	if got := summarize(nil); got != (LatencySummary{}) {
		t.Fatalf("summarize(nil) = %+v, want zero", got)
	}
}
