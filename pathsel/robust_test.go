package pathsel

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
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

// executeCtx is the compile-per-call path under a caller's context.
func executeCtx(ctx context.Context, e *Estimator, q string) (ExecStats, error) {
	x, err := e.Compile(q)
	if err != nil {
		return ExecStats{}, err
	}
	return x.ExecuteCtx(ctx)
}

func TestExecuteCtxPreCancelled(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := executeCtx(ctx, e, "a/b/a"); !errors.Is(err, ErrCancelled) {
		t.Fatalf("pre-cancelled ctx: %v, want ErrCancelled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := executeCtx(dctx, e, "a/b/a"); !errors.Is(err, ErrDeadlineExceeded) {
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

// The pool hygiene of concurrent executions: a server fans a /batch out
// as concurrent ExecuteCtx calls on one estimator, so the refusals, the
// policy kills and the contained panics below run beside sibling
// queries, and every one of them must hand its relations back.

// TestConcurrentExecutionsCancelled runs a workload under a cancelled
// context on four goroutines: every entry is refused with ErrCancelled,
// and nothing stays checked out.
func TestConcurrentExecutionsCancelled(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 2})
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = []string{"a/b/a", "b/a/b", "a/a/b"}[i%3]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := executeBatch(ctx, e, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrCancelled) {
			t.Fatalf("result %d: Err = %v, want ErrCancelled", i, r.Err)
		}
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after the cancelled workload", n)
	}
}

// TestConcurrentExecutionsAdmissionIsolation pins that a per-query
// policy kill takes none of its concurrent siblings with it: cheap
// queries answer exactly, expensive ones carry their own
// ErrAdmissionDenied.
func TestConcurrentExecutionsAdmissionIsolation(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 2, MaxPlanCost: 0.5})
	queries := []string{"a", "a/b/a", "b", "b/a/b", "a/b", "b/b"}
	res, err := executeBatch(context.Background(), e, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if len(r.Query) > 1 {
			if !errors.Is(r.Err, ErrAdmissionDenied) {
				t.Fatalf("result %d (%s): Err = %v, want ErrAdmissionDenied", i, r.Query, r.Err)
			}
			continue
		}
		want, err := e.TrueSelectivity(r.Query)
		if err != nil {
			t.Fatal(err)
		}
		if r.Err != nil || r.Result != want {
			t.Fatalf("result %d (%s): %d, %v; want %d", i, r.Query, r.Result, r.Err, want)
		}
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after the mixed workload", n)
	}
}

// TestConcurrentExecutionsPanicContainment panics one sharded join step
// while sibling queries execute: exactly one query comes back with
// ErrExecutionFailed, the rest answer exactly, and nothing stays checked
// out.
func TestConcurrentExecutionsPanicContainment(t *testing.T) {
	e := robustEstimator(t, Config{Workers: 4})
	queries := []string{"a/b/a", "b/a/b", "a/a/b", "b/b/a", "a/b/b", "b/a/a"}
	want := make([]int64, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = e.TrueSelectivity(q); err != nil {
			t.Fatal(err)
		}
	}
	inj := faultinject.NewInjector(faultinject.Rule{
		Site: "exec.shard", Skip: 1, Count: 1, Action: faultinject.ActPanic,
		PanicValue: "injected shard failure",
	})
	faultinject.Install(inj)
	t.Cleanup(faultinject.Uninstall)
	res, err := executeBatch(context.Background(), e, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Triggered("exec.shard") != 1 {
		t.Fatalf("exec.shard fired %d times, want 1", inj.Triggered("exec.shard"))
	}
	failed := 0
	for i, r := range res {
		switch {
		case errors.Is(r.Err, ErrExecutionFailed):
			failed++
		case r.Err != nil || r.Result != want[i]:
			t.Fatalf("result %d (%s): %d, %v; want %d", i, r.Query, r.Result, r.Err, want[i])
		}
	}
	if failed != 1 {
		t.Fatalf("%d queries failed, want the one whose shard panicked", failed)
	}
	if n := e.pool.InUse(); n != 0 {
		t.Fatalf("pool has %d relations checked out after the contained panic", n)
	}
}
