package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"repro/internal/bitset"
	"repro/internal/exec"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// Traced levels. Each replays the same operations, timing the calls one
// layer further down:
//
//	untraced  op                                  (what the timed window measures)
//	client    op ⊃ client.roundtrip               (serve workloads)
//	handler   serve.handler                       (serve workloads)
//	pathsel   pathsel.compile, pathsel.execute
//	exec      exec.plan, exec.run                 (internal/exec called directly)
//
// Replaying one operation through several levels on one system would
// turn every level after the first into a cache hit, so on a workload
// with a cache every level runs on its own fresh system, brought to the
// same warm-up state.
const (
	levelUntraced = "untraced"
	levelClient   = "client"
	levelHandler  = "handler"
	levelPathsel  = "pathsel"
	levelExec     = "exec"
)

// traceRounds is how many rounds runLevels cuts the operations into.
const traceRounds = 20

// reconcileSlack is how far a level's summed time may exceed its parent
// level's, and how large the benchmark's own share of a traced
// operation may be, before the traced run fails.
const reconcileSlack = 0.10

// levelFn runs pool entry i as operation number op of a pass, recording
// its spans; a nil recorder replays it untimed.
type levelFn func(r *recorder, st *opState, op, i int) error

// level is one traced level: open returns the pass's operation on a
// system in the warm-up state, and the function that releases it.
type level struct {
	name string
	open func() (levelFn, func(), error)
}

// recorderBody is the in-memory http.ResponseWriter the handler level
// serves into.
type recorderBody struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *recorderBody) Header() http.Header         { return w.header }
func (w *recorderBody) WriteHeader(status int)      { w.status = status }
func (w *recorderBody) Write(b []byte) (int, error) { return w.body.Write(b) }

// levelsOf lists the workload's traced levels. shared is the prepared
// system; a workload without a cache has no state to reset and replays
// every level on it.
func levelsOf(shared *system, env *layerEnv, tally *execTally) []level {
	sp, pool := shared.sp, shared.pool
	fresh := func() (*system, func(), error) {
		if sp.cfg.CacheBytes == 0 {
			return shared, func() {}, nil
		}
		s, err := setUp(sp, pool)
		if err != nil {
			return nil, nil, err
		}
		return s, s.close, nil
	}
	on := func(mk func(s *system) levelFn) func() (levelFn, func(), error) {
		return func() (levelFn, func(), error) {
			s, done, err := fresh()
			if err != nil {
				return nil, nil, err
			}
			return mk(s), done, nil
		}
	}
	untraced := level{levelUntraced, on(func(s *system) levelFn {
		return func(r *recorder, st *opState, op, i int) error {
			t0 := r.now()
			err := s.op(st, i, true)
			r.add(op, rootSpan, "", t0, r.now())
			return err
		}
	})}
	execLevel := level{levelExec, func() (levelFn, func(), error) { return openExecLevel(env, pool, tally) }}

	switch sp.kind {
	case kindEstimate:
		return []level{untraced,
			{levelPathsel, on(func(s *system) levelFn {
				return func(r *recorder, st *opState, op, i int) error {
					t0 := r.now()
					x, err := s.est.Compile(pool[i].query)
					t1 := r.now()
					if err == nil {
						err = s.checkEstimate(&pool[i], x, true)
					}
					r.add(op, "pathsel.compile", rootSpan, t0, t1)
					r.add(op, rootSpan, "", t0, r.now())
					return err
				}
			})},
			execLevel}
	case kindExecute:
		return []level{untraced,
			{levelPathsel, on(func(s *system) levelFn {
				return func(r *recorder, st *opState, op, i int) error {
					t0 := r.now()
					res, err := s.exprs[i].ExecuteCtx(context.Background())
					t1 := r.now()
					if err == nil {
						err = checkResult(&pool[i], res.Result, res.Degraded, true)
					}
					r.add(op, "pathsel.execute", rootSpan, t0, t1)
					r.add(op, rootSpan, "", t0, r.now())
					return err
				}
			})},
			execLevel}
	}
	return []level{untraced,
		{levelClient, on(func(s *system) levelFn {
			return func(r *recorder, st *opState, op, i int) error {
				t0 := r.now()
				status, err := s.fetch(st, i)
				t1 := r.now()
				if err == nil {
					err = s.checkAnswer(st, i, status, true)
				}
				r.add(op, "client.roundtrip", rootSpan, t0, t1)
				r.add(op, rootSpan, "", t0, r.now())
				return err
			}
		})},
		{levelHandler, on(func(s *system) levelFn {
			w := &recorderBody{header: make(http.Header)}
			return func(r *recorder, st *opState, op, i int) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.urls[i], nil)
				if err != nil {
					return err
				}
				clear(w.header)
				w.status = http.StatusOK
				w.body.Reset()
				t0 := r.now()
				s.srv.ServeHTTP(w, req)
				t1 := r.now()
				r.add(op, "serve.handler", "client.roundtrip", t0, t1)
				r.add(op, rootSpan, "", t0, t1)
				ans, err := decodeAnswer(w.status, w.body.Bytes())
				if err != nil {
					return err
				}
				return checkResult(&pool[i], ans.Result, ans.Degraded, true)
			}
		})},
		{levelPathsel, on(func(s *system) levelFn {
			return func(r *recorder, st *opState, op, i int) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				t0 := r.now()
				x, err := s.est.Compile(pool[i].query)
				t1 := r.now()
				if err != nil {
					return err
				}
				res, err := x.ExecuteCtx(ctx)
				t2 := r.now()
				r.add(op, "pathsel.compile", "serve.handler", t0, t1)
				r.add(op, "pathsel.execute", "serve.handler", t1, t2)
				r.add(op, rootSpan, "", t0, t2)
				if err != nil {
					return err
				}
				return checkResult(&pool[i], res.Result, res.Degraded, true)
			}
		})},
		execLevel}
}

// execTally is what the exec level's operations add up: exact counts.
type execTally struct {
	ops, work, bushy, dag int64
}

// openExecLevel opens the level that calls internal/exec directly, on
// the benchmark's own histogram, relation pool and — with the workload's
// budget — relation cache, replaying what pathsel.Compile and
// Expr.ExecuteCtx do inside: plan and estimate at compile time, plan
// again against the live cache at execution time, run.
func openExecLevel(env *layerEnv, pool []entry, tally *execTally) (levelFn, func(), error) {
	sp := env.sp
	var cache *relcache.Cache
	pl := exec.Planner{Est: exec.EstimatorFunc(env.ph.Estimate)}
	if sp.cfg.CacheBytes > 0 {
		cache = relcache.New(relcache.Options{MaxBytes: sp.cfg.CacheBytes, Shards: sp.cfg.CacheShards})
		if sp.cfg.BushyPlans {
			pl.Cached = func(p paths.Path) bool { return cache.Contains(p) }
		}
	}
	rels := exec.NewRelPool(env.csr.NumVertices(), sp.cfg.DensityThreshold)
	vertices, bushy := env.csr.NumVertices(), sp.cfg.BushyPlans
	fn := func(r *recorder, _ *opState, op, i int) error {
		e := &pool[i]
		// Compile's inner work: one planning plus the pattern's estimate.
		t0 := r.now()
		planOnce(pl, e, vertices, bushy)
		if e.path != nil {
			sink += env.ph.Estimate(e.path)
		} else if exps, ok := (&exec.RPQDag{Elems: e.elems}).Expansions(maxPatternExpansions); ok {
			for _, p := range exps {
				sink += env.ph.Estimate(p)
			}
		}
		t1 := r.now()
		r.add(op, "exec.plan", "pathsel.compile", t0, t1)
		if sp.kind == kindEstimate {
			r.add(op, rootSpan, "", t0, t1)
			return nil
		}
		// ExecuteCtx's inner work: plan against the live cache, then run,
		// under the kind of context the real operation carries — a
		// request's cancellable one when served, the background otherwise.
		ctx := context.Background()
		if sp.kind == kindServe {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
		}
		canc, release := exec.NewCancellerContext(ctx)
		defer release()
		opt := exec.Options{DensityThreshold: sp.cfg.DensityThreshold, Workers: sp.cfg.Workers,
			Cache: cache, Cancel: canc, MaxResultBytes: sp.cfg.MaxResultBytes, Pool: rels}
		t2 := r.now()
		plan, tree, dp := planOnce(pl, e, vertices, bushy)
		if e.path != nil {
			sink += env.ph.Estimate(e.path)
		}
		t3 := r.now()
		st, err := runPlanned(env, e, plan, tree, dp, opt)
		t4 := r.now()
		r.add(op, "exec.plan", "pathsel.execute", t2, t3)
		r.add(op, "exec.run", "pathsel.execute", t3, t4)
		r.add(op, rootSpan, "", t0, t4)
		if err != nil {
			return err
		}
		if r != nil {
			tally.ops++
			tally.work += st.Work
			if dp != nil {
				tally.dag++
			} else if tree != nil && !tree.IsLeaf() {
				tally.bushy++
			}
		}
		return checkResult(e, st.Result, false, true)
	}
	// Warm-up, untimed, through the same calls.
	for _, i := range warmupSequence(sp, len(pool)) {
		if err := fn(nil, nil, 0, i); err != nil {
			return nil, nil, fmt.Errorf("exec level warm-up %q: %w", pool[i].query, err)
		}
	}
	return fn, func() {}, nil
}

// runPlanned carries a planned query out on the executor pathsel would
// pick, and releases the result relation.
func runPlanned(env *layerEnv, e *entry, plan exec.Plan, tree *exec.PlanTree, dp *exec.DagPlan, opt exec.Options) (exec.Stats, error) {
	var rel *bitset.HybridRelation
	var st exec.Stats
	var err error
	switch {
	case dp != nil:
		rel, st, err = exec.ExecuteDagChecked(env.csr, &exec.RPQDag{Elems: e.elems}, dp, opt)
	case tree != nil:
		rel, st, err = exec.ExecuteTreeChecked(env.csr, e.path, tree, opt)
	default:
		rel, st, err = exec.ExecutePlanChecked(env.csr, e.path, plan, opt)
	}
	opt.Pool.Put(rel)
	return st, err
}

// runLevels replays ops once through every level. The levels advance in
// lockstep by rounds: each, on its own system, runs the next roundOps
// operations in a tight loop — the steady state the timed window runs in
// — before any starts the round after, so all levels see the same
// operation in the same cache state within milliseconds of one another
// and a slow spell of the host lands on all of them alike. The order of
// the levels is shuffled every round.
func runLevels(levels []level, ops []int) (*recorder, error) {
	r := newRecorder()
	fns := make([]levelFn, len(levels))
	var closers []func()
	defer func() {
		for _, done := range closers {
			done()
		}
	}()
	for k, lv := range levels {
		fn, done, err := lv.open()
		if err != nil {
			return nil, fmt.Errorf("level %s: %w", lv.name, err)
		}
		fns[k], closers = fn, append(closers, done)
	}
	roundOps := max(len(ops)/traceRounds, 1)
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(len(levels))
	states := make([]opState, len(levels))
	// A collection that happens to run during one level's round stalls
	// single operations there by milliseconds and the levels stop adding
	// up, so the collector runs between rounds and never inside one. The
	// levels therefore time the layers without the collector's share,
	// which proc.gc_* and the end-to-end metrics carry.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for lo := 0; lo < len(ops); lo += roundOps {
		runtime.GC()
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, j := range order {
			r.level = levels[j].name
			for n := lo; n < min(lo+roundOps, len(ops)); n++ {
				if err := fns[j](r, &states[j], n, ops[n]); err != nil {
					return nil, fmt.Errorf("level %s, operation %d: %w", levels[j].name, n, err)
				}
			}
		}
	}
	return r, nil
}

// errUnreconciled marks a traced run whose levels do not add up.
var errUnreconciled = errors.New("traced levels do not reconcile")

// layerTimes turns the recorded spans into the level-derived metrics and
// checks that the levels reconcile: a level's children, measured at the
// next level, must not exceed it by more than reconcileSlack, and the
// benchmark's own share of a traced operation must stay under it.
func layerTimes(sp *spec, spans []span, ops int, m map[string]float64) error {
	us := func(level, parent, name string) float64 {
		return mean(perOp(spans, spanKey{level, parent, name}, ops)) / 1e3
	}
	top := rootSpan // parent of the pathsel spans
	traced := levelPathsel
	var problems []string
	exceeds := func(what string, children, parent float64) {
		if children > parent*(1+reconcileSlack) {
			problems = append(problems, fmt.Sprintf("%s: children %.2f us exceed parent %.2f us", what, children, parent))
		}
	}
	if sp.kind == kindServe {
		top, traced = "serve.handler", levelClient
		roundtrip := us(levelClient, rootSpan, "client.roundtrip")
		handler := us(levelHandler, "client.roundtrip", "serve.handler")
		m["serve.handler_us"] = handler
		m["serve.transport_us"] = roundtrip - handler
		exceeds("client.roundtrip", handler, roundtrip)
	}
	compile := us(levelPathsel, top, "pathsel.compile")
	execute := us(levelPathsel, top, "pathsel.execute")
	planC := us(levelExec, "pathsel.compile", "exec.plan")
	planX := us(levelExec, "pathsel.execute", "exec.plan")
	run := us(levelExec, "pathsel.execute", "exec.run")
	if sp.kind == kindServe {
		m["serve.self_us"] = m["serve.handler_us"] - compile - execute
		exceeds("serve.handler", compile+execute, m["serve.handler_us"])
	}
	if sp.kind != kindExecute {
		m["pathsel.compile_us"] = compile
		m["pathsel.compile_self_us"] = compile - planC
		m["exec.plan_ns"] = planC * 1e3
		exceeds("pathsel.compile", planC, compile)
	}
	if sp.kind != kindEstimate {
		m["pathsel.execute_us"] = execute
		m["pathsel.execute_self_us"] = execute - planX - run
		m["exec.plan_ns"] = planX * 1e3
		m["exec.run_us"] = run
		exceeds("pathsel.execute", planX+run, execute)
	}
	untraced := us(levelUntraced, "", rootSpan)
	if untraced > 0 {
		m["trace.overhead_share"] = us(traced, "", rootSpan)/untraced - 1
	}
	m["trace.unattributed_share"] = 0
	for level, share := range unattributedShare(spans) {
		if share > m["trace.unattributed_share"] {
			m["trace.unattributed_share"] = share
		}
		if share > reconcileSlack {
			problems = append(problems, fmt.Sprintf("level %s: %.1f%% of the operation is in no module call", level, share*100))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w: %v", errUnreconciled, problems)
	}
	return nil
}

// traceFile is where a workload's spans go.
func traceFile(outDir, workload string) string {
	return filepath.Join(outDir, workload+".trace.jsonl")
}
