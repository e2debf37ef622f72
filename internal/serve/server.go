// Package serve is the engine's serving layer: an HTTP front end over
// one persistent pathsel.Estimator, shared — statistics, relation
// cache, and relation pool alike — by every concurrent request. It
// turns the library's per-query contract (context cancellation,
// Config.QueryTimeout deadlines, cost-based admission, degradation to
// estimate) into wire semantics: each resource-policy outcome maps to a
// distinct HTTP status code and a typed JSON body, so clients and load
// balancers can tell an overloaded server (429/503) from a slow query
// (504) from a bug (500).
//
// The package also hosts the open-loop load harness (load.go): a
// replayer that drives a server with a Zipf-distributed query-arrival
// trace (internal/workload.ZipfTrace) at configurable concurrency and
// arrival rate, recording latency percentiles, throughput, cache hit
// rate, and degradation/timeout counts. cmd/pathserve and cmd/serveload
// are thin flag wrappers; the serving path's speed is measured by bench/'s
// serve_hot and serve_mixed workloads (bench/README.md).
//
// In the layer map (graph → bitset → paths → exec → pathsel → serve)
// this package sits above the public facade and below cmd; it imports
// only pathsel and internal/workload.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/pathsel"
)

// QueryResponse is the JSON body of a successful (or degraded) query.
type QueryResponse struct {
	// Query echoes the executed query.
	Query string `json:"query"`
	// Result is the exact selectivity — or the rounded histogram
	// estimate when Degraded is set.
	Result int64 `json:"result"`
	// Plan describes the executed join strategy.
	Plan string `json:"plan"`
	// EstimatedCost is the chosen plan's histogram-estimated cost.
	EstimatedCost float64 `json:"estimated_cost"`
	// Work is the actual total intermediate volume.
	Work int64 `json:"work"`
	// CacheHits and CacheMisses count the query's traffic against the
	// estimator's shared segment-relation cache.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Degraded marks a resource-policy kill answered with the histogram
	// estimate (Config.DegradeToEstimate); DegradedBy names the cause.
	Degraded   bool   `json:"degraded,omitempty"`
	DegradedBy string `json:"degraded_by,omitempty"`
	// LatencyNs is the server-side handling time.
	LatencyNs int64 `json:"latency_ns"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	// Error is the human-readable cause.
	Error string `json:"error"`
	// Code is the machine-readable error class: one of bad_request,
	// bad_pattern, admission_denied, budget_exceeded, deadline_exceeded,
	// cancelled, execution_failed, overloaded, draining.
	Code string `json:"code"`
	// RetryAfterMs, when > 0, is the server's hint of when capacity
	// should exist again — present on overload sheds (429, alongside a
	// Retry-After header) and drain refusals (503). Clients that honor
	// it (serveload's retry mode does) converge instead of hammering.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Error codes of ErrorResponse.Code.
const (
	CodeBadRequest      = "bad_request"
	CodeBadPattern      = "bad_pattern" // RPQ grammar violation (still a 400)
	CodeAdmissionDenied = "admission_denied"
	CodeBudgetExceeded  = "budget_exceeded"
	CodeDeadline        = "deadline_exceeded"
	CodeCancelled       = "cancelled"
	CodeExecutionFailed = "execution_failed"
	// CodeOverloaded marks a request shed by the overload controller
	// (429 + Retry-After): distinct from CodeAdmissionDenied, which is
	// the per-query cost gate — an overloaded shed says "come back
	// later", a cost rejection says "this query is too expensive here".
	CodeOverloaded = "overloaded"
	// CodeDraining refuses a request arriving during graceful shutdown
	// (503 + Retry-After) so load balancers retry against a peer.
	CodeDraining = "draining"
	// CodeBrownout marks a degraded answer produced by the brownout
	// controller (QueryResponse.DegradedBy, never an error code): the
	// query was answered with its histogram estimate because load, not
	// its own cost, demanded it.
	CodeBrownout = "brownout"
)

// maxBatchQueries bounds one /batch request; larger workloads should be
// split client-side (the cache amortization batches exist for saturates
// well below this).
const maxBatchQueries = 1024

// Counters is a snapshot of the server's request accounting, reported
// by /stats and asserted by the end-to-end tests.
type Counters struct {
	Requests   int64 `json:"requests"`
	Batches    int64 `json:"batches"`
	OK         int64 `json:"ok"`
	Degraded   int64 `json:"degraded"`
	BadRequest int64 `json:"bad_request"`
	Rejected   int64 `json:"rejected"` // admission denied (429)
	Overload   int64 `json:"overload"` // budget exceeded / cancelled / draining (503)
	Timeout    int64 `json:"timeout"`  // deadline exceeded (504)
	Failed     int64 `json:"failed"`   // execution failed (500)
	// Shed counts requests refused by the overload controller (429 +
	// Retry-After); BrownoutDegraded counts answers the brownout
	// controller degraded to estimates (a subset of Degraded). Both stay
	// zero with the controller disabled.
	Shed             int64 `json:"shed"`
	BrownoutDegraded int64 `json:"brownout_degraded"`
	InFlight         int64 `json:"in_flight"`
	// Scheduler activity summed over every successfully answered query:
	// parallel join-step tasks executed, tasks stolen across workers, and
	// worker parks. All-zero when every request ran its steps
	// sequentially (1-worker config or all steps below the granularity
	// floor). Steals and parks are the contention signals; cache-shard
	// lock waits are reported alongside in StatsResponse.Cache.
	SchedTasks  int64 `json:"sched_tasks"`
	SchedSteals int64 `json:"sched_steals"`
	SchedParks  int64 `json:"sched_parks"`
}

// StatsResponse is the JSON body of /stats: graph metadata (what a
// client needs to form valid queries), request counters, and the
// estimator's persistent cache counters when one is configured.
type StatsResponse struct {
	Labels        []string            `json:"labels"`
	MaxPathLength int                 `json:"max_path_length"`
	Counters      Counters            `json:"counters"`
	Cache         *pathsel.CacheStats `json:"cache,omitempty"`
	// Overload is the overload controller's live state (queue depth,
	// adaptive limit, brownout tier, shed counters); absent when the
	// controller is disabled.
	Overload *OverloadStats `json:"overload,omitempty"`
	UptimeNs int64          `json:"uptime_ns"`
}

// Server wraps one persistent estimator behind an http.Handler. All
// methods are safe for concurrent use; the zero value is not usable —
// construct with New.
type Server struct {
	est     *pathsel.Estimator
	mux     *http.ServeMux
	started time.Time
	// lim is the overload controller; nil when disabled (the default),
	// in which case every request executes immediately as before.
	lim *limiter
	// draining refuses new work after StartDrain even with no
	// controller, so graceful shutdown always has a readiness signal.
	draining atomic.Bool

	requests, batches                   atomic.Int64
	ok, degraded, badRequest            atomic.Int64
	rejected, overload, timeout, failed atomic.Int64
	shed, brownoutDegraded              atomic.Int64
	inFlight                            atomic.Int64
	schedTasks, schedSteals, schedParks atomic.Int64
}

// Options tunes a server beyond the estimator's own Config.
type Options struct {
	// Overload enables the server-wide overload controller (adaptive
	// concurrency limit, bounded admission queue, brownout degradation —
	// see OverloadConfig). nil, or a config with MaxInFlight ≤ 0,
	// disables it.
	Overload *OverloadConfig
}

// New wraps est. The estimator's Config decides the serving policy:
// CacheBytes shares a relation cache across requests, QueryTimeout
// bounds each request, MaxPlanCost/MaxResultBytes gate admission, and
// DegradeToEstimate turns kills into degraded 200s.
func New(est *pathsel.Estimator) *Server {
	return NewWithOptions(est, Options{})
}

// NewWithOptions is New plus server-level options.
func NewWithOptions(est *pathsel.Estimator, opt Options) *Server {
	s := &Server{est: est, mux: http.NewServeMux(), started: time.Now()}
	if opt.Overload != nil && opt.Overload.MaxInFlight > 0 {
		s.lim = newLimiter(*opt.Overload)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// StartDrain moves the server into draining: /healthz turns 503 so load
// balancers rotate the replica out, new queries are refused with
// CodeDraining + Retry-After, and in-flight (and queued) work finishes
// normally. Call it before http.Server.Shutdown, which handles the
// connection-level part of the same story.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	if s.lim != nil {
		s.lim.startDrain()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Counters snapshots the request accounting.
func (s *Server) Counters() Counters {
	return Counters{
		Requests:         s.requests.Load(),
		Batches:          s.batches.Load(),
		OK:               s.ok.Load(),
		Degraded:         s.degraded.Load(),
		BadRequest:       s.badRequest.Load(),
		Rejected:         s.rejected.Load(),
		Overload:         s.overload.Load(),
		Timeout:          s.timeout.Load(),
		Failed:           s.failed.Load(),
		Shed:             s.shed.Load(),
		BrownoutDegraded: s.brownoutDegraded.Load(),
		InFlight:         s.inFlight.Load(),
		SchedTasks:       s.schedTasks.Load(),
		SchedSteals:      s.schedSteals.Load(),
		SchedParks:       s.schedParks.Load(),
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past the header are undeliverable; clients see a
	// truncated body and their decoder reports it.
	_ = json.NewEncoder(w).Encode(body)
}

// handleHealthz distinguishes liveness from readiness: 200 "ok" when
// the replica should receive traffic, 503 "draining" during graceful
// shutdown, 503 "overloaded" while the controller is saturated (full
// queue or deepest brownout tier) — the signal load balancers use to
// rotate the replica out before clients feel it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, state := http.StatusOK, "ok"
	switch {
	case s.draining.Load():
		status, state = http.StatusServiceUnavailable, "draining"
	case s.lim != nil && s.lim.hardOverloaded():
		status, state = http.StatusServiceUnavailable, "overloaded"
	}
	writeJSON(w, status, map[string]any{
		"status":    state,
		"uptime_ns": time.Since(s.started).Nanoseconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Labels:        s.est.Labels(),
		MaxPathLength: s.est.MaxPathLength(),
		Counters:      s.Counters(),
		UptimeNs:      time.Since(s.started).Nanoseconds(),
	}
	if cs, ok := s.est.CacheStats(); ok {
		resp.Cache = &cs
	}
	if s.lim != nil {
		os := s.lim.stats()
		os.Shed = s.shed.Load()
		os.BrownoutDegraded = s.brownoutDegraded.Load()
		os.Draining = os.Draining || s.draining.Load()
		resp.Overload = &os
	}
	writeJSON(w, http.StatusOK, resp)
}

// errClass maps a pathsel error onto its HTTP status and wire code. The
// mapping is the serving tier's contract: 400 for malformed queries,
// 429 for admission rejections (retry later, against another replica),
// 503 for mid-flight resource kills and cancellations, 504 for
// deadline expiry, 500 only for contained execution failures.
func errClass(err error) (status int, code string) {
	switch {
	case errors.Is(err, pathsel.ErrBadPattern):
		// RPQ grammar violations get their own wire code so clients can
		// tell a malformed pattern (fix the query) from an unknown label
		// or a missing parameter (fix the request).
		return http.StatusBadRequest, CodeBadPattern
	case errors.Is(err, pathsel.ErrAdmissionDenied):
		return http.StatusTooManyRequests, CodeAdmissionDenied
	case errors.Is(err, pathsel.ErrBudgetExceeded):
		return http.StatusServiceUnavailable, CodeBudgetExceeded
	case errors.Is(err, pathsel.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadline
	case errors.Is(err, pathsel.ErrCancelled):
		return http.StatusServiceUnavailable, CodeCancelled
	case errors.Is(err, pathsel.ErrExecutionFailed):
		return http.StatusInternalServerError, CodeExecutionFailed
	default:
		// Parse/validation errors: unknown label, empty path, too long.
		return http.StatusBadRequest, CodeBadRequest
	}
}

// countError attributes one non-2xx response to its counter.
func (s *Server) countError(status int) {
	switch status {
	case http.StatusBadRequest:
		s.badRequest.Add(1)
	case http.StatusTooManyRequests:
		s.rejected.Add(1)
	case http.StatusGatewayTimeout:
		s.timeout.Add(1)
	case http.StatusInternalServerError:
		s.failed.Add(1)
	default:
		s.overload.Add(1)
	}
}

// degradedCode renders ExecStats.DegradedBy as a wire code, including
// the brownout cause errClass never sees (brownout is not an error).
func degradedCode(err error) string {
	if errors.Is(err, pathsel.ErrBrownout) {
		return CodeBrownout
	}
	_, code := errClass(err)
	return code
}

// retryAfterHeader renders a duration as the Retry-After header's
// integer seconds, rounded up so the hint never undershoots.
func retryAfterHeader(d time.Duration) string {
	secs := (d + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(int64(secs), 10)
}

// writeError renders one execution error, counting it: overload sheds
// get 429 + CodeOverloaded with the Retry-After hint in both header
// (whole seconds) and body (milliseconds — the precise form), drain
// refusals 503 + CodeDraining + Retry-After, everything else the
// errClass contract.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var sh *shedError
	switch {
	case errors.As(err, &sh):
		s.shed.Add(1)
		ms := sh.retryAfter.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		w.Header().Set("Retry-After", retryAfterHeader(sh.retryAfter))
		writeJSON(w, http.StatusTooManyRequests,
			ErrorResponse{Error: err.Error(), Code: CodeOverloaded, RetryAfterMs: ms})
	case errors.Is(err, errDraining):
		s.overload.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: err.Error(), Code: CodeDraining, RetryAfterMs: time.Second.Milliseconds()})
	default:
		status, code := errClass(err)
		s.countError(status)
		writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
	}
}

// admit gates one request through drain state and the overload
// controller: on success the returned policy carries the brownout tier
// and release must be called when the execution finishes (it feeds the
// observed service time back into the limiter). With the controller
// disabled both are trivial and requests flow exactly as before.
func (s *Server) admit(ctx context.Context) (pathsel.ExecPolicy, func(), error) {
	faultinject.Fire("serve.admit")
	if s.lim == nil {
		if s.draining.Load() {
			return pathsel.ExecPolicy{}, nil, errDraining
		}
		return pathsel.ExecPolicy{}, func() {}, nil
	}
	pol, err := s.lim.acquire(ctx)
	if err != nil {
		return pathsel.ExecPolicy{}, nil, err
	}
	start := time.Now()
	return pol, func() { s.lim.release(time.Since(start)) }, nil
}

// observeCost feeds an answered query's plan cost into the brownout
// percentile window.
func (s *Server) observeCost(cost float64) {
	if s.lim != nil {
		s.lim.recordCost(cost)
	}
}

// execute runs one query under the overload regime: admission (shed /
// drain / queue), the brownout policy, service-time feedback, and
// handler-level panic containment — net/http's own recover would sever
// the connection, turning an injected serve.admit panic into a client
// transport error instead of a typed 500.
func (s *Server) execute(ctx context.Context, q string) (st pathsel.ExecStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = pathsel.ExecStats{}, fmt.Errorf("%w: contained serving-layer panic: %v",
				pathsel.ErrExecutionFailed, r)
		}
	}()
	pol, release, err := s.admit(ctx)
	if err != nil {
		return pathsel.ExecStats{}, err
	}
	defer release()
	x, err := s.est.Compile(q)
	if err != nil {
		return pathsel.ExecStats{}, err
	}
	st, err = x.ExecuteCtxPolicy(ctx, pol)
	if err == nil {
		s.observeCost(st.Plan.EstimatedCost)
	}
	return st, err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed,
			ErrorResponse{Error: "use GET or POST", Code: CodeBadRequest})
		return
	}
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	// v2 wire API: `pattern` carries a regular path query (the full RPQ
	// grammar — alternation, optional, bounded repetition); `q` is the
	// v1 name, which the estimator now accepts the same grammar under.
	// Exactly one must be present.
	q, pattern := r.URL.Query().Get("q"), r.URL.Query().Get("pattern")
	switch {
	case q != "" && pattern != "":
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: "give either q or pattern, not both", Code: CodeBadRequest})
		return
	case q == "" && pattern == "":
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: "missing q or pattern parameter (RPQ such as a/(b|c)/d?/e{1,3})", Code: CodeBadRequest})
		return
	case pattern != "":
		q = pattern
	}
	start := time.Now()
	st, err := s.execute(r.Context(), q)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.schedTasks.Add(st.Sched.Tasks)
	s.schedSteals.Add(st.Sched.Steals)
	s.schedParks.Add(st.Sched.Parks)
	resp := QueryResponse{
		Query:         q,
		Result:        st.Result,
		Plan:          st.Plan.Description,
		EstimatedCost: st.Plan.EstimatedCost,
		Work:          st.Work,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		Degraded:      st.Degraded,
		LatencyNs:     time.Since(start).Nanoseconds(),
	}
	if st.Degraded {
		s.degraded.Add(1)
		resp.DegradedBy = degradedCode(st.DegradedBy)
		if resp.DegradedBy == CodeBrownout {
			s.brownoutDegraded.Add(1)
		}
	} else {
		s.ok.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchRequest is the JSON body of POST /batch: a workload of RPQ
// patterns executed through one shared relation cache, so segments
// recurring across the batch are materialized once.
type BatchRequest struct {
	// Queries are the patterns (same grammar as /query).
	Queries []string `json:"queries"`
	// Workers is the number of queries executed concurrently (≤ 0
	// selects 1). Results are bit-identical at every setting.
	Workers int `json:"workers,omitempty"`
}

// BatchItem is one query's outcome within a batch response: a
// QueryResponse on success, or Error/Code (the same classes /query
// answers with) on a per-query kill. A per-query failure never fails
// the batch.
type BatchItem struct {
	QueryResponse
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// BatchResponse is the JSON body of a successful POST /batch.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	// LatencyNs is the server-side handling time of the whole batch.
	LatencyNs int64 `json:"latency_ns"`
}

// handleBatch executes a whole workload per request. Every pattern is
// compiled before anything executes — a malformed workload is a 400
// naming the first offending query — then the batch runs through the
// estimator's parse-once batch executor under the request context.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed,
			ErrorResponse{Error: "use POST with a JSON body", Code: CodeBadRequest})
		return
	}
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: "malformed batch body: " + err.Error(), Code: CodeBadRequest})
		return
	}
	if len(req.Queries) == 0 {
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: "batch needs at least one query", Code: CodeBadRequest})
		return
	}
	if len(req.Queries) > maxBatchQueries {
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("batch of %d queries exceeds %d", len(req.Queries), maxBatchQueries), Code: CodeBadRequest})
		return
	}
	s.batches.Add(1)
	start := time.Now()
	xs := make([]*pathsel.Expr, len(req.Queries))
	for i, q := range req.Queries {
		x, err := s.est.Compile(q)
		if err != nil {
			_, code := errClass(err)
			s.badRequest.Add(1)
			writeJSON(w, http.StatusBadRequest,
				ErrorResponse{Error: fmt.Sprintf("query %d: %s", i, err), Code: code})
			return
		}
		xs[i] = x
	}
	br, err := s.executeBatch(r.Context(), xs, req.Workers)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := BatchResponse{Results: make([]BatchItem, len(br.Results))}
	for i, qr := range br.Results {
		item := BatchItem{QueryResponse: QueryResponse{
			Query:         string(qr.Query),
			Result:        qr.Result,
			Plan:          qr.Plan.Description,
			EstimatedCost: qr.Plan.EstimatedCost,
			Work:          qr.Work,
			CacheHits:     qr.CacheHits,
			CacheMisses:   qr.CacheMisses,
			Degraded:      qr.Degraded,
		}}
		switch {
		case qr.Err != nil:
			status, code := errClass(qr.Err)
			s.countError(status)
			item.Error, item.Code = qr.Err.Error(), code
		case qr.Degraded:
			s.degraded.Add(1)
			item.DegradedBy = degradedCode(qr.DegradedBy)
			if item.DegradedBy == CodeBrownout {
				s.brownoutDegraded.Add(1)
			}
			s.observeCost(qr.Plan.EstimatedCost)
		default:
			s.ok.Add(1)
			s.observeCost(qr.Plan.EstimatedCost)
		}
		s.schedTasks.Add(qr.Sched.Tasks)
		s.schedSteals.Add(qr.Sched.Steals)
		s.schedParks.Add(qr.Sched.Parks)
		resp.Results[i] = item
	}
	resp.LatencyNs = time.Since(start).Nanoseconds()
	writeJSON(w, http.StatusOK, resp)
}

// executeBatch runs one batch under the overload regime: the whole
// batch occupies a single in-flight slot (its queries already share the
// estimator's internal parallelism), the brownout policy applies to
// every entry, and panics are contained exactly as in execute.
func (s *Server) executeBatch(ctx context.Context, xs []*pathsel.Expr, workers int) (br *pathsel.BatchResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			br, err = nil, fmt.Errorf("%w: contained serving-layer panic: %v",
				pathsel.ErrExecutionFailed, r)
		}
	}()
	pol, release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return s.est.ExecuteExprBatchCtx(ctx, xs, pathsel.BatchOptions{Workers: workers, Policy: pol})
}
