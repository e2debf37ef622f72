// Command serveload drives a running pathserve instance with an
// open-loop Zipf workload and reports what the serving layer is judged
// by: latency percentiles (service and sojourn), achieved throughput,
// cache hit rate, and how many requests were shed, degraded, or timed
// out. It fetches the server's /stats endpoint for the label vocabulary
// and maximum path length, builds one ranked pool of wire-format queries
// — label paths (workload.QueryPool) or, with -rpq, patterns
// (workload.RPQPool) — and replays a Zipf-distributed trace of its ranks
// (workload.ZipfTrace, bound by serve.RankQueries) against the server.
//
// Usage:
//
//	serveload -url http://127.0.0.1:8080 -n 2000 -concurrency 8            # saturation (capacity)
//	serveload -url http://127.0.0.1:8080 -n 2000 -rate 500 -zipf-s 1.2     # open loop at 500 qps
//	serveload ... -rate 500 -arrival onoff -burst-on 50ms -burst-off 150ms # bursty ON/OFF arrivals
//	serveload ... -rate 500 -arrival gamma -gamma-shape 0.3                # clumped Gamma arrivals
//	serveload ... -retries 2 -retry-base 5ms                               # retry sheds, honoring Retry-After
//	serveload ... -rpq                                                     # RPQ-pattern pool against /query?q=
//	serveload ... -batch 16                                                # group arrivals into POST /batch requests
//	serveload ... -json report.json                                        # machine-readable report
//
// Rate 0 replays the whole trace as fast as the concurrency allows
// (capacity mode — read the service latencies); a positive rate holds
// the arrival process fixed regardless of server speed (open loop —
// read the sojourn latencies, which charge queue wait). -arrival picks
// the arrival process at that rate: exp (Poisson, the default), onoff
// (bursts at the elevated in-window rate separated by silent windows),
// or gamma (clumped inter-arrival gaps; shape < 1 burstier than
// Poisson). -retries re-issues overload-shed answers (429 +
// Retry-After) with jittered exponential backoff that honors the
// server's hint, each wait capped at 500ms; retry wait is charged to
// the original arrival's sojourn. -rpq swaps the concrete-path pool for
// regular path patterns (alternation, optionals, bounded repetition);
// -batch N issues the trace as POST /batch requests of N consecutive
// arrivals, exercising the server's parse-once batch executor.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "pathserve base URL")
	n := flag.Int("n", 1000, "trace length (number of requests)")
	rate := flag.Float64("rate", 0, "arrival rate in qps (0 = saturation: replay as fast as concurrency allows)")
	concurrency := flag.Int("concurrency", 4, "replayer workers (max in-flight requests)")
	poolSize := flag.Int("pool", 64, "distinct queries in the Zipf pool")
	maxLen := flag.Int("maxlen", 0, "longest query in the pool (0 = the server's max path length)")
	zipfS := flag.Float64("zipf-s", workload.DefaultZipfS, "Zipf skew exponent (> 1)")
	zipfV := flag.Float64("zipf-v", workload.DefaultZipfV, "Zipf offset (>= 1)")
	seed := flag.Int64("seed", 1, "trace seed")
	arrival := flag.String("arrival", "", "arrival process at -rate: exp (default), onoff, or gamma")
	burstOn := flag.Duration("burst-on", 0, "onoff arrivals: ON window length (0 = default)")
	burstOff := flag.Duration("burst-off", 0, "onoff arrivals: OFF window length (0 = default)")
	gammaShape := flag.Float64("gamma-shape", 0, "gamma arrivals: shape parameter, < 1 clumps (0 = default)")
	retries := flag.Int("retries", 0, "re-issue overload-shed answers up to this many times per arrival")
	retryBase := flag.Duration("retry-base", 0, "retry backoff base, doubled per attempt with jitter (0 = default)")
	rpq := flag.Bool("rpq", false, "draw the pool from RPQ patterns (alternation, ?, {m,n}) instead of concrete paths")
	batch := flag.Int("batch", 0, "group this many consecutive arrivals into one POST /batch request (0 = per-query GETs)")
	jsonOut := flag.String("json", "", "also write the report as JSON to this file (- for stdout)")
	flag.Parse()

	retry := serve.RetryPolicy{Max: *retries, Base: *retryBase, Seed: *seed}
	if err := run(*url, *n, *rate, *concurrency, *poolSize, *maxLen, *zipfS, *zipfV, *seed,
		*arrival, *burstOn, *burstOff, *gammaShape, retry, *rpq, *batch, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
}

// fetchStats asks the server what queries it can answer.
func fetchStats(baseURL string) (*serve.StatsResponse, error) {
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats answered %s", resp.Status)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	if len(st.Labels) == 0 || st.MaxPathLength < 1 {
		return nil, fmt.Errorf("/stats reports an unusable vocabulary: %d labels, k=%d", len(st.Labels), st.MaxPathLength)
	}
	return &st, nil
}

func run(baseURL string, n int, rate float64, concurrency, poolSize, maxLen int, zipfS, zipfV float64, seed int64,
	arrival string, burstOn, burstOff time.Duration, gammaShape float64, retry serve.RetryPolicy, rpq bool, batch int, jsonOut string) error {
	st, err := fetchStats(baseURL)
	if err != nil {
		return err
	}
	if maxLen <= 0 || maxLen > st.MaxPathLength {
		maxLen = st.MaxPathLength
	}
	buildPool, kind := workload.QueryPool, "path"
	if rpq {
		buildPool, kind = workload.RPQPool, "RPQ"
	}
	pool, err := buildPool(st.Labels, maxLen, poolSize, seed)
	if err != nil {
		return err
	}
	tr, err := workload.ZipfTrace(len(pool), workload.TraceOptions{
		S: zipfS, V: zipfV, Rate: rate, N: n, Seed: seed,
		Arrival: arrival, OnDur: burstOn, OffDur: burstOff, GammaShape: gammaShape,
	})
	if err != nil {
		return err
	}
	trace, err := serve.RankQueries(tr, pool)
	if err != nil {
		return err
	}

	mode := "saturation"
	if rate > 0 {
		mode = fmt.Sprintf("open loop @ %g qps", rate)
		if arrival != "" && arrival != workload.ArrivalExp {
			mode += " (" + arrival + ")"
		}
	}
	transport := "per-query"
	if batch > 1 {
		transport = fmt.Sprintf("batches of %d", batch)
	}
	fmt.Printf("serveload: %d requests over %d distinct %s queries (zipf s=%g), %s, concurrency %d, %s\n",
		len(trace), len(pool), kind, zipfS, mode, concurrency, transport)

	rep, err := serve.RunLoad(baseURL, trace, serve.LoadOptions{Concurrency: concurrency, Batch: batch, Retry: retry})
	if err != nil {
		return err
	}
	printReport(rep, rate)

	if jsonOut == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func printReport(rep *serve.LoadReport, rate float64) {
	fmt.Printf("  outcomes: %d ok, %d degraded, %d rejected, %d shed, %d overload, %d timeout, %d failed, %d bad, %d transport errors\n",
		rep.OK, rep.Degraded, rep.Rejected, rep.Shed, rep.Overload, rep.Timeout, rep.Failed, rep.BadRequest, rep.TransportErrors)
	fmt.Printf("  overload: %d shed (final), %d retries, %d brownout-degraded\n",
		rep.Shed, rep.Retries, rep.DegradedBrownout)
	if rep.Batches > 0 {
		fmt.Printf("  batches: %d issued\n", rep.Batches)
	}
	fmt.Printf("  throughput: %.0f qps over %v\n", rep.QPS, time.Duration(rep.ElapsedNs).Round(time.Millisecond))
	fmt.Printf("  cache: %d hits / %d misses (hit rate %.1f%%)\n",
		rep.CacheHits, rep.CacheMisses, 100*rep.HitRate())
	lat := func(name string, s serve.LatencySummary) {
		fmt.Printf("  %s latency: p50 %v  p95 %v  p99 %v  max %v\n", name,
			time.Duration(s.P50Ns).Round(time.Microsecond),
			time.Duration(s.P95Ns).Round(time.Microsecond),
			time.Duration(s.P99Ns).Round(time.Microsecond),
			time.Duration(s.MaxNs).Round(time.Microsecond))
	}
	lat("service", rep.Service)
	if rate > 0 {
		lat("sojourn", rep.Sojourn)
		lat("sojourn-accepted", rep.SojournAccepted)
	}
}
