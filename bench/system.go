package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync/atomic"

	"repro/internal/serve"
	"repro/pathsel"
)

// system is one workload's system under test, set up and warmed: the
// estimator, and for the serve workloads the server on its loopback
// listener — http.Server{Handler: serve.New(est)}, what cmd/pathserve
// constructs — with the keep-alive client that drives it.
type system struct {
	sp    *spec
	pool  []entry
	graph *pathsel.Graph
	est   *pathsel.Estimator
	exprs []*pathsel.Expr // kindExecute: one pre-compiled handle per pool entry

	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	base   string        // kindServe: the server's http://host:port
	urls   []string      // kindServe: one request URL per pool entry
	client *http.Client

	// issued counts requests sent and answered those that came back 200
	// and not degraded, warm-up included — what /stats must agree with.
	issued, answered atomic.Int64
}

// opState is one client's reusable per-operation scratch and tallies.
type opState struct {
	body                 bytes.Buffer
	tasks, steals, parks int64
	respBytes            int64
}

// queryAnswer is the part of serve.QueryResponse the client checks.
type queryAnswer struct {
	Result   int64 `json:"result"`
	Degraded bool  `json:"degraded"`
}

// buildEstimator generates the workload's graph and builds its estimator.
func buildEstimator(sp *spec) (*pathsel.Graph, *pathsel.Estimator, error) {
	g, err := pathsel.GenerateDataset(sp.dataset, sp.scale, datasetSeed)
	if err != nil {
		return nil, nil, err
	}
	est, err := pathsel.Build(g, sp.cfg)
	if err != nil {
		return nil, nil, err
	}
	return g, est, nil
}

// setUp brings the workload's system to the state in which the first
// timed operation runs: dataset generation, pathsel.Build, handle
// compilation, listener start and the fixed warm-up. pool may be nil on
// the first call; it is then built from the graph's vocabulary. Warm-up
// operations are executed but not verified (the oracle may not have run
// yet); a transport or execution error still fails the set-up.
func setUp(sp *spec, pool []entry) (*system, error) {
	g, est, err := buildEstimator(sp)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		pool = sp.pool(sp, g.Labels())
	}
	s := &system{sp: sp, pool: pool, graph: g, est: est}
	switch sp.kind {
	case kindExecute:
		s.exprs = make([]*pathsel.Expr, len(pool))
		for i := range pool {
			if s.exprs[i], err = est.Compile(pool[i].query); err != nil {
				return nil, fmt.Errorf("compile %q: %w", pool[i].query, err)
			}
		}
	case kindServe:
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.srv = serve.New(est)
		s.hs = &http.Server{Handler: s.srv}
		s.served = make(chan struct{})
		go func() {
			defer close(s.served)
			_ = s.hs.Serve(ln) // always returns ErrServerClosed after close()
		}()
		s.base = "http://" + ln.Addr().String()
		s.urls = make([]string, len(pool))
		for i := range pool {
			s.urls[i] = s.base + "/query?q=" + url.QueryEscape(pool[i].query)
		}
		clients := sp.clientCount()
		s.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients,
		}}
	}
	var st opState
	for _, i := range warmupSequence(sp, len(pool)) {
		if err := s.op(&st, i, false); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %q: %w", pool[i].query, err)
		}
	}
	return s, nil
}

// warmupSequence is the fixed warm-up every set-up replays: one pass
// over the whole pool in rank order, so every entry has been seen, then
// draws from the workload's own distribution under a constant seed.
func warmupSequence(sp *spec, poolSize int) []int {
	seq := make([]int, 0, sp.warmupOps)
	for i := 0; i < poolSize && len(seq) < sp.warmupOps; i++ {
		seq = append(seq, i)
	}
	return append(seq, newSequence(poolSize, sp.zipf, 0, 0).take(sp.warmupOps-len(seq))...)
}

// close stops the server and waits for its goroutine.
func (s *system) close() {
	if s.hs != nil {
		_ = s.hs.Close()
		<-s.served
		s.client.CloseIdleConnections()
	}
}

var errMismatch = errors.New("answer differs from the oracle")

// op runs pool entry i once through the workload's public entry point
// and, when verify is set, checks the answer against the oracle.
func (s *system) op(st *opState, i int, verify bool) error {
	e := &s.pool[i]
	switch s.sp.kind {
	case kindEstimate:
		x, err := s.est.Compile(e.query)
		if err != nil {
			return err
		}
		return s.checkEstimate(e, x, verify)
	case kindExecute:
		res, err := s.exprs[i].ExecuteCtx(context.Background())
		if err != nil {
			return err
		}
		st.tasks += res.Sched.Tasks
		st.steals += res.Sched.Steals
		st.parks += res.Sched.Parks
		return checkResult(e, res.Result, res.Degraded, verify)
	}
	status, err := s.fetch(st, i)
	if err != nil {
		return err
	}
	return s.checkAnswer(st, i, status, verify)
}

// checkEstimate reads a compiled pattern's estimate and plan — the rest
// of the estimate workload's operation — and checks them.
func (s *system) checkEstimate(e *entry, x *pathsel.Expr, verify bool) error {
	v, plan := x.Estimate(), x.Plan()
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || math.IsNaN(plan.EstimatedCost) || plan.EstimatedCost < 0 {
		return fmt.Errorf("estimate %v, plan cost %v: not a finite non-negative number", v, plan.EstimatedCost)
	}
	if verify && v != e.est {
		return fmt.Errorf("%w: estimate %v, want %v", errMismatch, v, e.est)
	}
	return nil
}

// checkResult checks an executed query's answer.
func checkResult(e *entry, got int64, degraded, verify bool) error {
	if degraded {
		return errors.New("degraded answer")
	}
	if verify && got != e.want {
		return fmt.Errorf("%w: result %d, want %d", errMismatch, got, e.want)
	}
	return nil
}

// fetch sends pool entry i's request and reads the whole answer into
// st.body: the HTTP round trip.
func (s *system) fetch(st *opState, i int) (status int, err error) {
	s.issued.Add(1)
	resp, err := s.client.Get(s.urls[i])
	if err != nil {
		return 0, err
	}
	st.body.Reset()
	_, err = st.body.ReadFrom(resp.Body)
	resp.Body.Close()
	st.respBytes += int64(st.body.Len())
	return resp.StatusCode, err
}

// checkAnswer decodes the answer fetch left in st.body and checks it.
func (s *system) checkAnswer(st *opState, i, status int, verify bool) error {
	ans, err := decodeAnswer(status, st.body.Bytes())
	if err != nil {
		return err
	}
	if !ans.Degraded {
		s.answered.Add(1)
	}
	return checkResult(&s.pool[i], ans.Result, ans.Degraded, verify)
}

// decodeAnswer checks the status and parses the answer body.
func decodeAnswer(status int, body []byte) (queryAnswer, error) {
	if status != http.StatusOK {
		return queryAnswer{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var ans queryAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return queryAnswer{}, err
	}
	return ans, nil
}

// clientCount is the closed loop's client count: one per CPU for the
// serve workloads, which is the load one process can offer honestly.
func (sp *spec) clientCount() int {
	if sp.clients > 0 {
		return sp.clients
	}
	return runtime.NumCPU()
}

// statsCounters fetches the server's request counters from /stats.
func (s *system) statsCounters() (serve.Counters, error) {
	resp, err := s.client.Get(s.base + "/stats")
	if err != nil {
		return serve.Counters{}, err
	}
	defer resp.Body.Close()
	var sr serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return serve.Counters{}, err
	}
	return sr.Counters, nil
}
