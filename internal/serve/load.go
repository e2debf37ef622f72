package serve

// The open-loop load harness: replay a query-arrival trace against a
// running server over real HTTP, measuring what the serving layer is
// judged by — latency percentiles at a given offered load, achieved
// throughput, cache hit rate, and how many requests were shed, degraded,
// or timed out. Open loop means arrival times come from the trace, not
// from the server: when the server lags, arrivals queue (and the queue
// wait is charged to sojourn latency) instead of the harness politely
// slowing down — the coordinated-omission mistake closed-loop harnesses
// make.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/workload"
)

// TimedQuery is one load-harness arrival: a wire-format query string and
// its scheduled offset from the run start.
type TimedQuery struct {
	At    time.Duration `json:"at_ns"`
	Query string        `json:"query"`
}

// RankQueries renders a trace (workload.ZipfTrace) into timed queries
// over the wire-format pool its ranks index — workload.QueryPool's
// label paths or workload.RPQPool's patterns alike.
func RankQueries(tr []workload.Arrival, pool []string) ([]TimedQuery, error) {
	out := make([]TimedQuery, len(tr))
	for i, a := range tr {
		if a.Rank < 0 || a.Rank >= len(pool) {
			return nil, fmt.Errorf("serve: trace arrival %d rank %d outside pool of %d", i, a.Rank, len(pool))
		}
		out[i] = TimedQuery{At: a.At, Query: pool[a.Rank]}
	}
	return out, nil
}

// LoadOptions tunes one RunLoad call.
type LoadOptions struct {
	// Concurrency is the number of replayer workers — the maximum
	// in-flight requests (≥ 1; 0 selects 1). Arrivals past that queue.
	Concurrency int
	// Batch groups consecutive arrivals into POST /batch requests of
	// this size (≤ 1 issues per-query GET /query requests). A batch is
	// released once its last member has arrived, so batching trades
	// per-query latency for the server-side cache amortization the
	// batch endpoint exists for.
	Batch int
	// Retry re-issues shed requests — a query or a whole batch alike —
	// with capped jittered exponential backoff, honoring the server's
	// Retry-After hint. Retries run on the worker that owns the arrival,
	// so the time they take is charged to the original arrival's sojourn
	// — the open-loop methodology stays honest about what a retrying
	// client actually experiences.
	Retry RetryPolicy
}

// RetryPolicy tunes the load client's handling of retryable answers —
// any response carrying a retry_after_ms hint (overload sheds, drain
// refusals).
type RetryPolicy struct {
	// Max is how many times one arrival may be re-issued (0 disables
	// retrying).
	Max int
	// Base seeds the exponential backoff: before re-issue n the client
	// waits max(server hint, Base·2^(n−1)) plus up to 50% jitter (≤ 0
	// selects 5ms), never more than retryCap.
	Base time.Duration
	// Seed makes the jitter deterministic (each worker derives its own
	// stream from it).
	Seed int64
}

// Retry waits: the backoff's default base, and the bound on any single
// wait.
const (
	defaultRetryBase = 5 * time.Millisecond
	retryCap         = 500 * time.Millisecond
)

// retryWait computes the wait before re-issue n (1-based): the larger
// of the server's hint and the exponential backoff, jittered up to
// +50%, capped.
func retryWait(rng *rand.Rand, pol RetryPolicy, attempt int, hintMs int64) time.Duration {
	base := pol.Base
	if base <= 0 {
		base = defaultRetryBase
	}
	shift := attempt - 1
	if shift > 20 {
		shift = 20 // past the cap regardless; avoid overflow
	}
	wait := base << shift
	if hint := time.Duration(hintMs) * time.Millisecond; hint > wait {
		wait = hint
	}
	wait += time.Duration(rng.Int63n(int64(wait)/2 + 1))
	return min(wait, retryCap)
}

// LatencySummary is a latency distribution in nanoseconds.
type LatencySummary struct {
	P50Ns  int64 `json:"p50_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
	MeanNs int64 `json:"mean_ns"`
}

// LoadReport is one load run's outcome.
type LoadReport struct {
	// Queries is the trace length; the outcome counters partition it.
	Queries int `json:"queries"`
	Outcomes
	// DegradedBrownout counts the subset of Degraded answered with
	// degraded_by == "brownout" — load-driven estimates rather than the
	// query's own resource policy.
	DegradedBrownout int64 `json:"degraded_brownout"`
	// Retries counts re-issues (an arrival retried twice adds 2); each
	// arrival still lands in exactly one outcome counter above, for its
	// final answer.
	Retries int64 `json:"retries"`
	// TransportErrors counts requests that never produced an HTTP
	// response (connection refused, client-side timeout).
	TransportErrors int64 `json:"transport_errors"`
	// Batches counts the /batch requests issued (0 in per-query mode);
	// the outcome counters above still partition individual queries.
	Batches int64 `json:"batches,omitempty"`

	// CacheHits/CacheMisses sum the per-response cache counters of every
	// 2xx answer.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// Elapsed is first-arrival to last-response; QPS is Queries/Elapsed —
	// achieved throughput, which under an open-loop rate only matches the
	// offered rate while the server keeps up.
	ElapsedNs int64   `json:"elapsed_ns"`
	QPS       float64 `json:"qps"`

	// Service is the request-issue → response latency distribution;
	// Sojourn additionally charges each arrival its queue wait (scheduled
	// arrival → response). In saturation mode (a trace with all arrivals
	// at 0) sojourn mostly measures the harness's own backlog — capacity
	// runs read Service, open-loop runs read Sojourn. With retries
	// enabled, Service spans first issue → final response and Sojourn
	// charges every backoff wait to the original arrival.
	Service LatencySummary `json:"service"`
	Sojourn LatencySummary `json:"sojourn"`
	// SojournAccepted is the sojourn distribution of answered (2xx)
	// arrivals only — the population an overload controller promises a
	// bounded experience to; shed and failed arrivals are excluded here
	// and visible in the counters instead.
	SojournAccepted LatencySummary `json:"sojourn_accepted"`
}

// HitRate returns CacheHits / (CacheHits + CacheMisses), or 0.
func (r *LoadReport) HitRate() float64 {
	if r.CacheHits+r.CacheMisses == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses)
}

// summarize reduces a latency sample to its summary. ns is consumed
// (sorted in place).
func summarize(ns []int64) LatencySummary {
	if len(ns) == 0 {
		return LatencySummary{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	pct := func(q float64) int64 {
		i := int(q*float64(len(ns))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ns) {
			i = len(ns) - 1
		}
		return ns[i]
	}
	var sum int64
	for _, v := range ns {
		sum += v
	}
	return LatencySummary{
		P50Ns:  pct(0.50),
		P95Ns:  pct(0.95),
		P99Ns:  pct(0.99),
		MaxNs:  ns[len(ns)-1],
		MeanNs: sum / int64(len(ns)),
	}
}

// RunLoad replays the trace against the server at baseURL over
// http.DefaultClient and collects the report. The trace must be sorted
// by arrival time (ZipfTrace output is). RunLoad returns an error only
// for a malformed baseURL — per-request failures are counted, not
// fatal, because measuring how a server fails under load is the point.
func RunLoad(baseURL string, trace []TimedQuery, opt LoadOptions) (*LoadReport, error) {
	if _, err := url.Parse(baseURL); err != nil {
		return nil, fmt.Errorf("serve: bad base URL %q: %w", baseURL, err)
	}
	if len(trace) == 0 {
		return &LoadReport{}, nil
	}
	workers := opt.Concurrency
	if workers < 1 {
		workers = 1
	}
	step := opt.Batch
	if step < 1 {
		step = 1
	}

	var mu sync.Mutex
	rep := &LoadReport{Queries: len(trace)}
	var counts [numOutcomes]int64
	service := make([]int64, 0, len(trace))
	sojourn := make([]int64, 0, len(trace))
	sojournAccepted := make([]int64, 0, len(trace))

	// The dispatcher owns the clock: it releases each arrival (or batch
	// of consecutive arrivals, once the last member has arrived) at its
	// scheduled time into a queue deep enough to never block, so a slow
	// server cannot slow the arrival process down. Workers drain the
	// queue; an arrival's sojourn starts at its *scheduled* time whether
	// or not a worker was free then.
	jobs := make(chan int, len(trace))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		rng := rand.New(rand.NewSource(opt.Retry.Seed + int64(w)*0x9e3779b9 + 1))
		go func() {
			defer wg.Done()
			var qs []string
			for lo := range jobs {
				hi := min(lo+step, len(trace))
				qs = qs[:0]
				for _, tq := range trace[lo:hi] {
					qs = append(qs, tq.Query)
				}
				issued := time.Now()
				// Issue, then re-issue while the server hints a retry wait
				// (overload sheds, drain refusals) and the budget lasts. The
				// worker stays occupied through the backoff, so the retries'
				// cost lands where it belongs: on these arrivals' sojourn and
				// on the harness's capacity to absorb the next ones.
				ans, status := issue(baseURL, qs, step > 1)
				retries := 0
				for ; retries < opt.Retry.Max && ans.RetryAfterMs > 0; retries++ {
					time.Sleep(retryWait(rng, opt.Retry, retries+1, ans.RetryAfterMs))
					ans, status = issue(baseURL, qs, step > 1)
				}
				done := time.Now()
				mu.Lock()
				rep.Retries += int64(retries)
				if step > 1 {
					rep.Batches++
				}
				for i, tq := range trace[lo:hi] {
					// A member's outcome is its own item when the answer
					// lists them, the answer's single item otherwise: a
					// /query's, or a whole-batch refusal (a 400 naming one
					// bad query, a shed) charged to every member.
					it := ans.BatchItem
					if i < len(ans.Results) {
						it = ans.Results[i]
					}
					soj := max(0, done.Sub(start.Add(tq.At)).Nanoseconds())
					service = append(service, done.Sub(issued).Nanoseconds())
					sojourn = append(sojourn, soj)
					if status == 0 {
						rep.TransportErrors++
						continue
					}
					out := classify(status, it)
					counts[out]++
					if out == outOK || out == outDegraded {
						rep.CacheHits += int64(it.CacheHits)
						rep.CacheMisses += int64(it.CacheMisses)
						sojournAccepted = append(sojournAccepted, soj)
						if it.DegradedBy == CodeBrownout {
							rep.DegradedBrownout++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	for lo := 0; lo < len(trace); lo += step {
		hi := min(lo+step, len(trace))
		if d := time.Until(start.Add(trace[hi-1].At)); d > 0 {
			time.Sleep(d)
		}
		jobs <- lo
	}
	close(jobs)
	wg.Wait()

	rep.Outcomes = outcomesOf(func(o outcome) int64 { return counts[o] })
	rep.ElapsedNs = time.Since(start).Nanoseconds()
	if rep.ElapsedNs > 0 {
		rep.QPS = float64(rep.Queries) / (float64(rep.ElapsedNs) / float64(time.Second))
	}
	rep.Service = summarize(service)
	rep.Sojourn = summarize(sojourn)
	rep.SojournAccepted = summarize(sojournAccepted)
	return rep, nil
}

// answer is the union of every body the two endpoints answer with, so one
// decode reads them all: the embedded item is /query's 200 (a
// QueryResponse) or either endpoint's non-200 (an ErrorResponse's error
// and code, beside its retry hint), Results is /batch's 200.
type answer struct {
	BatchItem
	// RetryAfterMs is the server's capacity hint when it sent one —
	// nonzero marks the answer retryable.
	RetryAfterMs int64       `json:"retry_after_ms"`
	Results      []BatchItem `json:"results"`
}

// issue sends the queries as one request — POST /batch when batch is set,
// GET /query for the first (only) one otherwise — and decodes whatever
// comes back. Status 0 reports a transport error: no HTTP response at
// all. A body that does not decode leaves the answer empty, to be
// classified by its status alone.
func issue(baseURL string, qs []string, batch bool) (ans answer, status int) {
	var resp *http.Response
	var err error
	if batch {
		var body []byte
		if body, err = json.Marshal(BatchRequest{Queries: qs}); err == nil {
			resp, err = http.Post(baseURL+"/batch", "application/json", bytes.NewReader(body))
		}
	} else {
		resp, err = http.Get(baseURL + "/query?q=" + url.QueryEscape(qs[0]))
	}
	if err != nil {
		return answer{}, 0
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&ans)
	// Drain so the connection is reusable.
	_, _ = io.Copy(io.Discard, resp.Body)
	return ans, resp.StatusCode
}

// classify attributes one member's final answer to its outcome counter —
// the load client's reading of wireTable. A failed item is its code's
// row (the code splits the 429s: "overloaded" is a shed, anything else
// the per-query cost rejection); a refusal whose body carried no known
// code falls back to the first row with its status, and past that to
// overload, the class of a 5xx from anything between client and server.
func classify(status int, it BatchItem) outcome {
	switch {
	case status == http.StatusOK && it.Error == "" && it.Degraded:
		return outDegraded
	case status == http.StatusOK && it.Error == "":
		return outOK
	}
	if row := wireByCode(it.Code); row != nil {
		return row.counter
	}
	for _, row := range wireTable {
		if row.status == status {
			return row.counter
		}
	}
	return outOverload
}

// WriteJSON encodes the report, indented, to w — the serveload CLI's
// -json output.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
