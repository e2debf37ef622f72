// Package serve is the engine's serving layer: an HTTP front end over
// one persistent pathsel.Estimator, shared — statistics, relation
// cache, and relation pool alike — by every concurrent request. It owns
// the serving policy (OverloadConfig): per-query deadlines, the plan-cost
// gate, degradation to estimate and the overload controller decide here
// whether a query executes or answers its estimate, while the library
// executes and reports. Each resource-policy outcome maps to a distinct
// HTTP status code and a typed JSON body, so clients and load balancers
// can tell an overloaded server (429/503) from a slow query (504) from a
// bug (500).
//
// Every request takes one pipeline, in this order:
//
//	decode → compile → admit → execute → account → encode
//
// /query is a batch of one and /batch the same code with n > 1. Decode
// and encode are the endpoint's own (a query string in and the single
// item unwrapped onto the HTTP status line out, or a JSON workload in
// and a list of items out); compile, admit, execute and account are
// shared (Server.compile, Server.run, Server.execute, Server.account).
// Server.execute is the one place that decides whether a query executes
// or answers its estimate, and why; the wire contract — which error is
// which status, code and counter — is the one table wireTable, read by
// the server and by the load client alike.
//
// New serves with no serving policy; NewWithOverload serves under an
// OverloadConfig: the per-query policy (deadline, plan-cost gate,
// degradation), which acts with or without the controller, and the
// overload controller (overload.go: adaptive limit, bounded queue,
// brownout tiers on fixed tuning), whose one off switch is
// MaxInFlight ≤ 0. StartDrain sets the server's one drain flag, which
// admit checks before the controller.
//
// The package also hosts the open-loop load harness (load.go): a
// replayer that drives a server with a Zipf-distributed query-arrival
// trace at configurable concurrency and arrival rate, recording latency
// percentiles, throughput, cache hit rate, and degradation/timeout
// counts. A trace has one path from pool to wire: workload.QueryPool or
// workload.RPQPool draws a ranked pool of wire-format queries,
// workload.ZipfTrace the ranks and arrival times, and RankQueries binds
// them. cmd/pathserve and cmd/serveload are thin flag wrappers; the
// serving path's speed is measured by bench/'s serve_hot and
// serve_mixed workloads (bench/README.md).
//
// In the layer map (graph → bitset → paths → exec → pathsel → serve)
// this package sits above the public facade and below cmd; it imports
// only pathsel, internal/workload and internal/faultinject (for its
// serve.admit fault site). A request is one strand: its queries run one
// after another on the handler goroutine, so the parallelism one
// admitted slot holds is a single query's Config.Workers.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
	// Degraded marks an answer given by the histogram estimate — a
	// refused or killed query under OverloadConfig.DegradeToEstimate, or
	// a query the brownout tier did not execute; DegradedBy names the
	// cause.
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
// well below this). maxBatchBody bounds the bytes /batch reads before it
// can count queries: a kilobyte a pattern, far beyond any pattern a
// histogram's MaxPathLength admits.
const (
	maxBatchQueries = 1024
	maxBatchBody    = maxBatchQueries << 10
)

// outcome indexes the answer counters. Every answered item — a /query,
// one member of a /batch, or a whole request refused before it executed
// — lands in exactly one.
type outcome int

const (
	outOK outcome = iota
	outDegraded
	outBadRequest
	outRejected
	outOverload
	outTimeout
	outFailed
	outShed
	numOutcomes
)

// wireRow is one cause's status, code and counter; err is the sentinel
// errors.Is matches it by.
type wireRow struct {
	err     error
	status  int
	code    string
	counter outcome
}

// wireTable is the serving tier's contract, defined once: which cause
// answers with which HTTP status and wire code, and which counter it
// lands in — 400 for malformed queries, 429 for admission rejections and
// sheds (retry later, against another replica), 503 for mid-flight
// resource kills, cancellations and drain refusals, 504 for deadline
// expiry, 500 only for contained execution failures. wireOf reads it by
// cause (the server), wireByCode by code (the server's status line and
// the load client, whose batch items carry only the code). Rows match in
// order; the last, with no sentinel, takes everything else: parse and
// validation errors such as an unknown label, an empty or overlong path,
// a missing parameter or an undecodable body.
var wireTable = [...]wireRow{
	{pathsel.ErrBadPattern, http.StatusBadRequest, CodeBadPattern, outBadRequest},
	{pathsel.ErrAdmissionDenied, http.StatusTooManyRequests, CodeAdmissionDenied, outRejected},
	{pathsel.ErrBudgetExceeded, http.StatusServiceUnavailable, CodeBudgetExceeded, outOverload},
	{pathsel.ErrDeadlineExceeded, http.StatusGatewayTimeout, CodeDeadline, outTimeout},
	{pathsel.ErrCancelled, http.StatusServiceUnavailable, CodeCancelled, outOverload},
	{pathsel.ErrExecutionFailed, http.StatusInternalServerError, CodeExecutionFailed, outFailed},
	{errShed, http.StatusTooManyRequests, CodeOverloaded, outShed},
	{errDraining, http.StatusServiceUnavailable, CodeDraining, outOverload},
	// Brownout is never an error, only the DegradedBy of a 200.
	{errBrownout, http.StatusOK, CodeBrownout, outDegraded},
	{nil, http.StatusBadRequest, CodeBadRequest, outBadRequest},
}

// wireOf returns the wireTable row err answers with.
func wireOf(err error) *wireRow {
	for i := range wireTable {
		if row := &wireTable[i]; row.err != nil && errors.Is(err, row.err) {
			return row
		}
	}
	return &wireTable[len(wireTable)-1]
}

// wireByCode returns the row a wire code names, or nil.
func wireByCode(code string) *wireRow {
	for i := range wireTable {
		if wireTable[i].code == code {
			return &wireTable[i]
		}
	}
	return nil
}

// Outcomes counts answered items by their outcome, one field per counter
// a wireTable row names; Counters and LoadReport embed it, so the server
// and the load client report the same fields under the same names.
type Outcomes struct {
	OK         int64 `json:"ok"`
	Degraded   int64 `json:"degraded"`
	BadRequest int64 `json:"bad_request"`
	Rejected   int64 `json:"rejected"` // admission denied (429)
	Overload   int64 `json:"overload"` // budget exceeded / cancelled / draining (503)
	Timeout    int64 `json:"timeout"`  // deadline exceeded (504)
	Failed     int64 `json:"failed"`   // execution failed (500)
	// Shed counts refusals by the overload controller (429 + code
	// "overloaded" + Retry-After) — kept apart from Rejected, the
	// per-query cost gate, because a shed says "the server was busy"
	// while a rejection says "the query was expensive". Zero with the
	// controller disabled.
	Shed int64 `json:"shed"`
}

// outcomesOf lays each outcome's count n(o) out as Outcomes.
func outcomesOf(n func(o outcome) int64) Outcomes {
	return Outcomes{
		OK: n(outOK), Degraded: n(outDegraded), BadRequest: n(outBadRequest), Rejected: n(outRejected),
		Overload: n(outOverload), Timeout: n(outTimeout), Failed: n(outFailed), Shed: n(outShed),
	}
}

// Counters is a snapshot of the server's request accounting, reported
// by /stats and asserted by the end-to-end tests.
type Counters struct {
	Requests int64 `json:"requests"`
	Batches  int64 `json:"batches"`
	Outcomes
	// BrownoutDegraded counts answers the brownout controller degraded to
	// estimates (a subset of Degraded); zero with the controller disabled.
	BrownoutDegraded int64 `json:"brownout_degraded"`
	InFlight         int64 `json:"in_flight"`
	// Scheduler activity summed over every successfully answered query:
	// parallel join-step tasks executed, tasks stolen across workers, and
	// worker parks. All-zero when every request ran its steps
	// sequentially (1-worker config or all steps below the sharding
	// floors). Steals and parks are the contention signals; cache-shard
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
	cfg     OverloadConfig // the per-query policy Server.execute reads
	mux     *http.ServeMux
	started time.Time
	// lim is the overload controller; nil when disabled (the default),
	// in which case every request executes immediately as before.
	lim *limiter
	// draining refuses new work after StartDrain, with or without a
	// controller, so graceful shutdown always has a readiness signal.
	draining atomic.Bool

	requests, batches, inFlight         atomic.Int64
	outcomes                            [numOutcomes]atomic.Int64
	brownoutDegraded                    atomic.Int64 // the part of outcomes[outDegraded] brownout caused
	schedTasks, schedSteals, schedParks atomic.Int64
}

// New wraps est with no serving policy: every query executes, under the
// request's own context alone. The estimator's Config still decides what
// is the library's — CacheBytes shares a relation cache across requests,
// and MaxResultBytes bounds every relation a query materializes.
func New(est *pathsel.Estimator) *Server {
	return NewWithOverload(est, OverloadConfig{})
}

// NewWithOverload is New under the serving policy oc: the per-query
// policy (QueryTimeout bounds each query, MaxPlanCost gates admission,
// DegradeToEstimate turns refusals and kills into degraded 200s) and the
// server-wide overload controller (adaptive concurrency limit, bounded
// admission queue, brownout degradation), which MaxInFlight ≤ 0 leaves
// off.
func NewWithOverload(est *pathsel.Estimator, oc OverloadConfig) *Server {
	s := &Server{est: est, cfg: oc, mux: http.NewServeMux(), started: time.Now()}
	if oc.MaxInFlight > 0 {
		s.lim = newLimiter(oc)
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
func (s *Server) StartDrain() { s.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Counters snapshots the request accounting.
func (s *Server) Counters() Counters {
	return Counters{
		Requests:         s.requests.Load(),
		Batches:          s.batches.Load(),
		Outcomes:         outcomesOf(func(o outcome) int64 { return s.outcomes[o].Load() }),
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
		os.Shed = s.outcomes[outShed].Load()
		os.BrownoutDegraded = s.brownoutDegraded.Load()
		os.Draining = s.draining.Load()
		resp.Overload = &os
	}
	writeJSON(w, http.StatusOK, resp)
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

// retryHint is the server's estimate of when a refused request should
// come back: the admission queue's own figure on a shed, a second on a
// drain refusal, zero (no hint) for everything else.
func retryHint(err error) time.Duration {
	var sh *shedError
	switch {
	case errors.As(err, &sh):
		return sh.retryAfter
	case errors.Is(err, errDraining):
		return time.Second
	}
	return 0
}

// writeFailure is the encode stage of every non-2xx answer: the item's
// error and code under the status its code names, with the retry hint —
// when there is one — in both header (whole seconds) and body
// (milliseconds, the precise form).
func writeFailure(w http.ResponseWriter, item BatchItem, retry time.Duration) {
	resp := ErrorResponse{Error: item.Error, Code: item.Code}
	if retry > 0 {
		w.Header().Set("Retry-After", retryAfterHeader(retry))
		resp.RetryAfterMs = max(retry.Milliseconds(), 1)
	}
	writeJSON(w, wireByCode(item.Code).status, resp)
}

// refuse answers a whole request with one error — an undecodable or
// uncompilable request, an admission refusal (shed, draining, death in
// the queue), a contained panic — accounted as one item.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	writeFailure(w, s.account("", pathsel.ExecStats{}, nil, err), retryHint(err))
}

// enter counts one request in; the returned func counts it out.
func (s *Server) enter() func() {
	s.requests.Add(1)
	s.inFlight.Add(1)
	return func() { s.inFlight.Add(-1) }
}

// compile is the compile stage: every pattern into xs, before admission,
// so a malformed request answers its 400 without holding a slot, queueing
// or training the service-time EWMA. It returns the index of the first
// pattern that fails with its error.
func (s *Server) compile(patterns []string, xs []*pathsel.Expr) (int, error) {
	for i, q := range patterns {
		x, err := s.est.Compile(q)
		if err != nil {
			return i, err
		}
		xs[i] = x
	}
	return 0, nil
}

// admit gates one request through drain state and the overload
// controller: on success it returns the brownout tier's cost threshold
// (0: nothing degrades), and release must be called when the execution
// finishes (it feeds the observed service time back into the limiter).
// With the controller disabled both are trivial and requests flow
// exactly as before.
func (s *Server) admit(ctx context.Context) (float64, func(), error) {
	faultinject.Fire("serve.admit")
	if s.draining.Load() {
		return 0, nil, errDraining
	}
	if s.lim == nil {
		return 0, func() {}, nil
	}
	threshold, err := s.lim.acquire(ctx)
	if err != nil {
		return 0, nil, err
	}
	start := s.lim.now()
	return threshold, func() { s.lim.release(s.lim.now().Sub(start)) }, nil
}

// execute is the execute stage of one admitted query, and the one place
// that decides whether it executes or answers its estimate: a plan whose
// estimated cost exceeds the brownout threshold (0: none) answers the
// rounded estimate unexecuted; one past MaxPlanCost is refused with
// ErrAdmissionDenied; the rest run x.ExecuteCtx, under QueryTimeout when
// set. Under DegradeToEstimate a refusal or a kill (degradable) answers
// the rounded estimate too. degradedBy is the cause of an estimate
// answer, nil for an executed one.
func (s *Server) execute(ctx context.Context, x *pathsel.Expr, threshold float64) (st pathsel.ExecStats, degradedBy, err error) {
	cost := x.Plan().EstimatedCost
	switch {
	case threshold > 0 && cost > threshold:
		return estimateOf(x), errBrownout, nil
	case s.cfg.MaxPlanCost > 0 && cost > s.cfg.MaxPlanCost:
		st, err = pathsel.ExecStats{Plan: x.Plan()}, fmt.Errorf("%w: estimated plan cost %g exceeds MaxPlanCost %g",
			pathsel.ErrAdmissionDenied, cost, s.cfg.MaxPlanCost)
	default:
		if s.cfg.QueryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
			defer cancel()
		}
		st, err = x.ExecuteCtx(ctx)
	}
	if err != nil && s.cfg.DegradeToEstimate && degradable(err) {
		return estimateOf(x), err, nil
	}
	return st, nil, err
}

// estimateOf is the answer a query gives instead of executing: its plan
// and its rounded histogram estimate, the one Compile made — so a
// compiled RPQ answers its compile-time estimate — and nothing else.
func estimateOf(x *pathsel.Expr) pathsel.ExecStats {
	st := pathsel.ExecStats{Plan: x.Plan()}
	st.Result = max(0, int64(math.Round(x.Estimate())))
	return st
}

// degradable reports whether a refusal or kill is a resource-policy
// outcome DegradeToEstimate may soften into the estimate. Execution
// failures (contained panics) are excluded: those are bugs to surface,
// not load to shed.
func degradable(err error) bool {
	return errors.Is(err, pathsel.ErrAdmissionDenied) || errors.Is(err, pathsel.ErrDeadlineExceeded) ||
		errors.Is(err, pathsel.ErrBudgetExceeded) || errors.Is(err, pathsel.ErrCancelled)
}

// run is the admit, execute and account stages for the compiled queries
// xs, one item each: the whole request occupies a single in-flight slot
// (shed / drain / queue), its queries run one after another on the
// handler goroutine, each answered by Server.execute under the slot's
// brownout threshold and accounted in input order, and the slot's
// service time feeds the limiter. A non-nil error refuses the whole
// request: a panic is contained here, because net/http's own recover
// would sever the connection, turning an injected serve.admit panic into
// a client transport error instead of a typed 500.
func (s *Server) run(ctx context.Context, xs []*pathsel.Expr, items []BatchItem) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: contained serving-layer panic: %v", pathsel.ErrExecutionFailed, r)
		}
	}()
	threshold, release, err := s.admit(ctx)
	if err != nil {
		return err
	}
	defer release()
	for i, x := range xs {
		st, degradedBy, err := s.execute(ctx, x, threshold)
		items[i] = s.account(x.Pattern(), st, degradedBy, err)
	}
	return nil
}

// account is the accounting stage, and the one place an execution's
// outcome becomes wire data: it renders (st, degradedBy, err) as the item
// both endpoints answer with — degraded, by that cause, when degradedBy
// is set — and bumps exactly one outcome counter. An answered query
// (exact or degraded) also feeds its plan cost into the brownout
// percentile window and its scheduler activity into the totals.
func (s *Server) account(pattern string, st pathsel.ExecStats, degradedBy, err error) BatchItem {
	item := BatchItem{QueryResponse: QueryResponse{
		Query:         pattern,
		Result:        st.Result,
		Plan:          st.Plan.Description,
		EstimatedCost: st.Plan.EstimatedCost,
		Work:          st.Work,
		CacheHits:     st.CacheHits,
		CacheMisses:   st.CacheMisses,
		Degraded:      degradedBy != nil,
	}}
	out := outOK
	switch {
	case err != nil:
		row := wireOf(err)
		out, item.Error, item.Code = row.counter, err.Error(), row.code
	case degradedBy != nil:
		out, item.DegradedBy = outDegraded, wireOf(degradedBy).code
		if item.DegradedBy == CodeBrownout {
			s.brownoutDegraded.Add(1)
		}
	}
	s.outcomes[out].Add(1)
	if err == nil {
		if s.lim != nil {
			s.lim.recordCost(st.Plan.EstimatedCost)
		}
		s.schedTasks.Add(st.Sched.Tasks)
		s.schedSteals.Add(st.Sched.Steals)
		s.schedParks.Add(st.Sched.Parks)
	}
	return item
}

// handleQuery serves a batch of one, its item unwrapped onto the HTTP
// status line: a QueryResponse under 200, an ErrorResponse otherwise.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed,
			ErrorResponse{Error: "use GET or POST", Code: CodeBadRequest})
		return
	}
	defer s.enter()()
	start := time.Now()
	// v2 wire API: `pattern` carries a regular path query (the full RPQ
	// grammar — alternation, optional, bounded repetition); `q` is the
	// v1 name, which the estimator now accepts the same grammar under.
	// Exactly one must be present.
	params := r.URL.Query()
	q, pattern := [1]string{params.Get("q")}, params.Get("pattern")
	var err error
	switch {
	case q[0] != "" && pattern != "":
		err = errors.New("give either q or pattern, not both")
	case q[0] == "" && pattern == "":
		err = errors.New("missing q or pattern parameter (RPQ such as a/(b|c)/d?/e{1,3})")
	case pattern != "":
		q[0] = pattern
	}
	var x [1]*pathsel.Expr
	var item [1]BatchItem
	if err == nil {
		_, err = s.compile(q[:], x[:])
	}
	if err == nil {
		err = s.run(r.Context(), x[:], item[:])
	}
	switch {
	case err != nil:
		s.refuse(w, err)
	case item[0].Error != "":
		writeFailure(w, item[0], 0)
	default:
		item[0].LatencyNs = time.Since(start).Nanoseconds()
		writeJSON(w, http.StatusOK, item[0].QueryResponse)
	}
}

// BatchRequest is the JSON body of POST /batch: a workload of RPQ
// patterns executed in input order in one admission slot on the
// estimator's relation cache, so segments recurring across the batch are
// materialized once. Any other field of the body, such as the "workers"
// older clients send, is ignored.
type BatchRequest struct {
	// Queries are the patterns (same grammar as /query).
	Queries []string `json:"queries"`
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

// handleBatch serves a whole workload per request. The body is bounded
// before it is decoded, and every pattern is compiled before anything is
// admitted or executes — a malformed workload is a 400 naming the first
// offending query.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed,
			ErrorResponse{Error: "use POST with a JSON body", Code: CodeBadRequest})
		return
	}
	defer s.enter()()
	var req BatchRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&req)
	switch {
	case err != nil:
		err = fmt.Errorf("malformed batch body: %v", err)
	case len(req.Queries) == 0:
		err = errors.New("batch needs at least one query")
	case len(req.Queries) > maxBatchQueries:
		err = fmt.Errorf("batch of %d queries exceeds %d", len(req.Queries), maxBatchQueries)
	}
	if err != nil {
		s.refuse(w, err)
		return
	}
	s.batches.Add(1)
	start := time.Now()
	xs := make([]*pathsel.Expr, len(req.Queries))
	if i, err := s.compile(req.Queries, xs); err != nil {
		s.refuse(w, fmt.Errorf("query %d: %w", i, err))
		return
	}
	resp := BatchResponse{Results: make([]BatchItem, len(xs))}
	if err := s.run(r.Context(), xs, resp.Results); err != nil {
		s.refuse(w, err)
		return
	}
	resp.LatencyNs = time.Since(start).Nanoseconds()
	writeJSON(w, http.StatusOK, resp)
}
