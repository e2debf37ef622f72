package pathsel

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sched"
)

// robustEstimator builds an estimator over a graph dense enough that
// multi-label queries shard across workers (the regime fault injection
// at exec.shard needs).
func robustEstimator(t *testing.T, cfg Config) *Estimator {
	t.Helper()
	g := batchTestGraph(t, 7, 400, 2, 6000)
	if cfg.MaxPathLength == 0 {
		cfg.MaxPathLength = 3
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 64
	}
	e, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewGraphChecked(t *testing.T) {
	if _, err := NewGraphChecked(4, nil); !errors.Is(err, ErrNoLabels) {
		t.Fatalf("NewGraphChecked(nil labels) = %v, want ErrNoLabels", err)
	}
	gr, err := NewGraphChecked(4, []string{"a"})
	if err != nil || gr == nil {
		t.Fatalf("NewGraphChecked(valid) = %v, %v", gr, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGraph with no labels should panic")
		}
	}()
	NewGraph(4, nil)
}

// TestDuplicateLabelRejected pins that a vocabulary naming one label twice
// is refused at construction: such a graph could build and save an
// estimator whose snapshot LoadEstimator rejects, and its second label
// could not be reached by name.
func TestDuplicateLabelRejected(t *testing.T) {
	if _, err := NewGraphChecked(4, []string{"a", "a", "b"}); !errors.Is(err, ErrDuplicateLabel) {
		t.Fatalf("NewGraphChecked(a, a, b) = %v, want ErrDuplicateLabel", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGraph with a repeated label should panic")
		}
	}()
	NewGraph(4, []string{"a", "b", "a"})
}

// TestBadLabelNameRejected pins that a label no pattern can address is
// refused at construction, from a vocabulary and from an edge list: such a
// label would be counted in the domain and advertised by Labels, while
// Compile misread its name as syntax — failing, or silently answering for
// another pattern. A name that only contains grammar characters elsewhere
// stays legal, and Compile answers for exactly that label.
func TestBadLabelNameRejected(t *testing.T) {
	for _, name := range []string{"", "*", "a/b", "x|y", "(a", "a)", "p?", "a{2}", "b}"} {
		if _, err := NewGraphChecked(4, []string{"ok", name}); !errors.Is(err, ErrBadLabelName) {
			t.Errorf("NewGraphChecked(ok, %q) = %v, want ErrBadLabelName", name, err)
		}
	}
	if _, err := LoadEdgeList(strings.NewReader("0 1 a\n0 1 http://x/y\n")); !errors.Is(err, ErrBadLabelName) {
		t.Errorf("LoadEdgeList with label http://x/y = %v, want ErrBadLabelName", err)
	}
	legal := []string{"a*b", "a?b", "rdf:type", "a{b"}
	gr, err := LoadEdgeList(strings.NewReader("0 1 a*b\n1 2 a?b\n2 3 rdf:type\n0 2 rdf:type\n3 0 a{b\n"))
	if err != nil {
		t.Fatalf("LoadEdgeList with legal names: %v", err)
	}
	e, err := Build(gr, Config{MaxPathLength: 2, Buckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range legal {
		want, err := e.Estimate(name)
		if err != nil {
			t.Fatalf("Estimate(%q): %v", name, err)
		}
		x, err := e.Compile(name)
		if err != nil || x.Estimate() != want {
			t.Fatalf("Compile(%q) = %v, %v; want the label's estimate %v", name, x, err, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGraph with a label named a/b should panic")
		}
	}()
	NewGraph(4, []string{"a", "a/b"})
}

// TestTypedSentinels pins that every user-facing error class matches its
// sentinel under errors.Is — the contract that replaces message-text
// matching.
func TestTypedSentinels(t *testing.T) {
	gr := NewGraph(4, []string{"a", "b"})
	if _, err := gr.AddEdge(0, "zzz", 1); !errors.Is(err, ErrUnknownLabel) {
		t.Errorf("AddEdge unknown label: %v, want ErrUnknownLabel", err)
	}
	if _, err := gr.AddEdge(0, "a", 99); !errors.Is(err, ErrVertexRange) {
		t.Errorf("AddEdge out of range: %v, want ErrVertexRange", err)
	}
	if _, err := gr.AddEdge(0, "a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := gr.AddEdge(1, "b", 2); err != nil {
		t.Fatal(err)
	}
	e, err := Build(gr, Config{MaxPathLength: 2, Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(""); !errors.Is(err, ErrEmptyPath) {
		t.Errorf("Estimate empty: %v, want ErrEmptyPath", err)
	}
	if _, err := e.Estimate("a/zzz"); !errors.Is(err, ErrUnknownLabel) {
		t.Errorf("Estimate unknown label: %v, want ErrUnknownLabel", err)
	}
	if _, err := e.Estimate("a/b/a"); !errors.Is(err, ErrPathTooLong) {
		t.Errorf("Estimate too long: %v, want ErrPathTooLong", err)
	}
	if _, err := executeQuery(e, "a/b/a"); !errors.Is(err, ErrPathTooLong) {
		t.Errorf("ExecuteQuery too long: %v, want ErrPathTooLong", err)
	}
	if _, err := estimatePattern(e, "a/b/*"); !errors.Is(err, ErrPathTooLong) {
		t.Errorf("EstimatePattern too long: %v, want ErrPathTooLong", err)
	}
	if _, err := gr.TruePatternSelectivity("a/qqq"); !errors.Is(err, ErrUnknownLabel) {
		t.Errorf("pattern unknown label: %v, want ErrUnknownLabel", err)
	}
	if _, err := Build(gr, Config{MaxPathLength: 0, Buckets: 4}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Build k=0: %v, want ErrBadConfig", err)
	}
	if _, err := Build(gr, Config{MaxPathLength: 2, Buckets: 4, QueryTimeout: -time.Second}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Build negative timeout: %v, want ErrBadConfig", err)
	}
	if _, err := GenerateDataset("no-such-dataset", 1, 1); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("GenerateDataset unknown: %v, want ErrUnknownDataset", err)
	}
	if _, err := LoadEstimator(strings.NewReader("\xff\xff garbage")); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("LoadEstimator garbage: %v, want ErrBadSnapshot", err)
	}
}

// executeCtx is the compile-per-call path under a caller's context and
// policy.
func executeCtx(ctx context.Context, e *Estimator, q string, pol ExecPolicy) (ExecStats, error) {
	x, err := e.Compile(q)
	if err != nil {
		return ExecStats{}, err
	}
	return x.ExecuteCtxPolicy(ctx, pol)
}

func TestExecuteCtxPreCancelled(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := executeCtx(ctx, e, "a/b/a", ExecPolicy{}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("pre-cancelled ctx: %v, want ErrCancelled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := executeCtx(dctx, e, "a/b/a", ExecPolicy{}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want ErrDeadlineExceeded", err)
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after refused queries", n)
	}
}

// TestQueryTimeout kills a query mid-flight with an injected per-step
// delay and pins both outcomes: the typed error, and — under
// DegradeToEstimate — the degraded histogram answer.
func TestQueryTimeout(t *testing.T) {
	faultinject.Install(faultinject.NewInjector(faultinject.Rule{
		Site: "exec.step", Action: faultinject.ActDelay, Delay: 10 * time.Millisecond,
	}))
	defer faultinject.Uninstall()

	e := robustEstimator(t, Config{Workers: 2, QueryTimeout: 3 * time.Millisecond})
	if _, err := executeQuery(e, "a/b/a"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("timed-out query: %v, want ErrDeadlineExceeded", err)
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after timeout", n)
	}

	e.cfg.DegradeToEstimate = true
	st, err := executeQuery(e, "a/b/a")
	if err != nil {
		t.Fatalf("degraded query errored: %v", err)
	}
	if !st.Degraded || !errors.Is(st.DegradedBy, ErrDeadlineExceeded) {
		t.Fatalf("degraded stats = %+v, want Degraded by ErrDeadlineExceeded", st)
	}
	want, err := e.Estimate("a/b/a")
	if err != nil {
		t.Fatal(err)
	}
	if d := float64(st.Result) - want; d > 0.5 || d < -0.5 {
		t.Fatalf("degraded Result = %d, want rounded estimate of %f", st.Result, want)
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after degraded timeout", n)
	}
}

func TestAdmissionGate(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 1, MaxPlanCost: 0.5})
	// Single-label queries have no join steps (estimated cost 0) and must
	// pass the plan-cost gate; multi-label queries on this dense graph
	// estimate far above 0.5 and must be refused without execution.
	if _, err := executeQuery(e, "a"); err != nil {
		t.Fatalf("single-label query refused: %v", err)
	}
	_, err := executeQuery(e, "a/b/a")
	if !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("expensive query: %v, want ErrAdmissionDenied", err)
	}

	e.cfg.DegradeToEstimate = true
	st, err := executeQuery(e, "a/b/a")
	if err != nil {
		t.Fatalf("degraded admission errored: %v", err)
	}
	if !st.Degraded || !errors.Is(st.DegradedBy, ErrAdmissionDenied) {
		t.Fatalf("degraded stats = %+v, want Degraded by ErrAdmissionDenied", st)
	}
	if st.Work != 0 || len(st.Intermediates) != 0 {
		t.Fatalf("admission-refused query did work: %+v", st)
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after admission denials", n)
	}
}

func TestResultByteBudget(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 2, MaxResultBytes: 64})
	_, err := executeQuery(e, "a/b/a")
	// The byte budget can trip at admission (histogram projection) or at
	// runtime (an actual relation outgrowing it); both are policy kills.
	if !errors.Is(err, ErrAdmissionDenied) && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("oversized query: %v, want ErrAdmissionDenied or ErrBudgetExceeded", err)
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after budget kill", n)
	}
}

// TestExecuteQueryPanicContainment injects a worker panic into a sharded
// join step through the public API: the query must come back as a typed
// ErrExecutionFailed — never a crash — and must not degrade (panics are
// bugs, not load).
func TestExecuteQueryPanicContainment(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 4, DegradeToEstimate: true})
	inj := faultinject.NewInjector(faultinject.Rule{
		Site: "exec.shard", Skip: 1, Count: 1, Action: faultinject.ActPanic,
		PanicValue: "injected shard failure",
	})
	faultinject.Install(inj)
	defer faultinject.Uninstall()
	_, err := executeQuery(e, "a/b/a")
	if inj.Triggered("exec.shard") != 1 {
		t.Fatalf("the query sharded no step past the first shard: the panic never fired (err %v)", err)
	}
	if !errors.Is(err, ErrExecutionFailed) {
		t.Fatalf("panicked query: %v, want ErrExecutionFailed", err)
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after contained panic", n)
	}
	// The estimator must stay serviceable after the contained failure.
	faultinject.Uninstall()
	st, err := executeQuery(e, "a/b/a")
	if err != nil || st.Degraded {
		t.Fatalf("follow-up query after contained panic: %+v, %v", st, err)
	}
}

// TestExecuteExprBatchCtxCancel cancels a batch mid-flight and pins the
// containment contract: executed entries carry real stats, refused
// entries carry ErrCancelled, nothing leaks, and the whole call returns
// a complete BatchResult.
func TestExecuteExprBatchCtxCancel(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 1})
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = []string{"a/b/a", "b/a/b", "a/a/b"}[i%3]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every entry must be refused deterministically
	xs, err := compileAll(e, queries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteExprBatchCtx(ctx, xs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(res.Results), len(queries))
	}
	for i, r := range res.Results {
		if !errors.Is(r.Err, ErrCancelled) {
			t.Fatalf("result %d: Err = %v, want ErrCancelled", i, r.Err)
		}
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after cancelled batch", n)
	}
}

// TestExecuteBatchPanicFailsTheBatch pins the batch's own containment: its
// queries are tasks on a scheduler, so a panic there — outside any query's
// execution — is contained by the drain, and the batch fails as a whole
// with ErrExecutionFailed wrapping the *sched.PanicError instead of
// ending the process. The estimator stays serviceable.
func TestExecuteBatchPanicFailsTheBatch(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 1})
	xs, err := compileAll(e, []string{"a/b/a", "b/a/b", "a/a/b", "a", "b/b", "a/b"})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.NewInjector(faultinject.Rule{Site: "sched.task", Skip: 2, Count: 1, Action: faultinject.ActPanic})
	faultinject.Install(inj)
	t.Cleanup(faultinject.Uninstall)
	res, err := e.ExecuteExprBatchCtx(context.Background(), xs, BatchOptions{Workers: 4})
	var pe *sched.PanicError
	if !errors.Is(err, ErrExecutionFailed) || !errors.As(err, &pe) || res != nil {
		t.Fatalf("batch under a sched.task panic = %v, %v; want ErrExecutionFailed wrapping *sched.PanicError", res, err)
	}
	if inj.Triggered("sched.task") != 1 {
		t.Fatalf("sched.task fired %d times, want 1", inj.Triggered("sched.task"))
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after the failed batch", n)
	}
	faultinject.Uninstall()
	res, err = e.ExecuteExprBatchCtx(context.Background(), xs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatalf("follow-up batch: %v", err)
	}
	for i, r := range res.Results {
		if r.Err != nil {
			t.Fatalf("follow-up batch entry %d: %v", i, r.Err)
		}
	}
}

// TestExecuteBatchPerQueryIsolation pins that a per-query policy kill
// never takes the rest of the batch with it: cheap queries succeed
// exactly as ExecuteQuery would, expensive ones carry their own typed
// Err.
func TestExecuteBatchPerQueryIsolation(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 1, MaxPlanCost: 0.5})
	queries := []string{"a", "a/b/a", "b", "b/a/b", "a/b"}
	res, err := executeBatch(e, queries, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		long := len(r.Query) > 1
		switch {
		case long && !errors.Is(r.Err, ErrAdmissionDenied):
			t.Fatalf("result %d (%s): Err = %v, want ErrAdmissionDenied", i, r.Query, r.Err)
		case !long && r.Err != nil:
			t.Fatalf("result %d (%s): Err = %v, want nil", i, r.Query, r.Err)
		}
		if !long {
			want, terr := e.TrueSelectivity(r.Query)
			if terr != nil {
				t.Fatal(terr)
			}
			if r.Result != want {
				t.Fatalf("result %d (%s): Result = %d, want %d", i, r.Query, r.Result, want)
			}
		}
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after mixed batch", n)
	}
}

// TestExecPolicyBrownout pins the per-call degradation policy: a plan
// above DegradeCostAbove answers the rounded histogram estimate marked
// DegradedBy ErrBrownout — without Config.DegradeToEstimate, without
// touching the graph — while cheap plans and the zero policy execute
// exactly.
func TestExecPolicyBrownout(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 1})
	pol := ExecPolicy{DegradeCostAbove: 0.5}

	// Expensive concrete path: degrades to the estimate, no graph work.
	st, err := executeCtx(context.Background(), e, "a/b/a", pol)
	if err != nil {
		t.Fatalf("brownout query errored: %v", err)
	}
	if !st.Degraded || !errors.Is(st.DegradedBy, ErrBrownout) {
		t.Fatalf("stats = %+v, want Degraded by ErrBrownout", st)
	}
	if st.Work != 0 || len(st.Intermediates) != 0 {
		t.Fatalf("brownout-degraded query did graph work: %+v", st)
	}
	want, err := e.Estimate("a/b/a")
	if err != nil {
		t.Fatal(err)
	}
	if d := float64(st.Result) - want; d > 0.5 || d < -0.5 {
		t.Fatalf("degraded Result = %d, want rounded estimate of %f", st.Result, want)
	}

	// Cheap plan (single label, zero join cost): unaffected by the policy.
	st, err = executeCtx(context.Background(), e, "a", pol)
	if err != nil || st.Degraded {
		t.Fatalf("cheap query under policy: %+v, %v — want exact answer", st, err)
	}

	// Zero policy: bit-identical to the plain call, on paths and RPQs.
	for _, q := range []string{"a/b/a", "a/(a|b)/a"} {
		plain, err := executeQuery(e, q)
		if err != nil {
			t.Fatal(err)
		}
		zero, err := executeCtx(context.Background(), e, q, ExecPolicy{})
		if err != nil || zero.Degraded || zero.Result != plain.Result {
			t.Fatalf("zero policy diverged on %s: %+v vs %+v (%v)", q, zero, plain, err)
		}
	}

	// A true RPQ (DAG route) degrades through the same policy.
	x, err := e.Compile("a/(a|b)/a")
	if err != nil {
		t.Fatal(err)
	}
	st, err = x.ExecuteCtxPolicy(context.Background(), pol)
	if err != nil {
		t.Fatalf("brownout RPQ errored: %v", err)
	}
	if !st.Degraded || !errors.Is(st.DegradedBy, ErrBrownout) || st.Work != 0 {
		t.Fatalf("RPQ stats = %+v, want work-free Degraded by ErrBrownout", st)
	}

	// Batch-wide policy: expensive entries degrade with nil Err, cheap
	// entries stay exact.
	res, err := executeBatch(e, []string{"a", "a/b/a"}, BatchOptions{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Results[0]; r.Err != nil || r.Degraded {
		t.Fatalf("cheap batch entry: %+v, %v", r.ExecStats, r.Err)
	}
	if r := res.Results[1]; r.Err != nil || !r.Degraded || !errors.Is(r.DegradedBy, ErrBrownout) {
		t.Fatalf("expensive batch entry: %+v, %v — want Degraded by ErrBrownout", r.ExecStats, r.Err)
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after brownout runs", n)
	}
}
