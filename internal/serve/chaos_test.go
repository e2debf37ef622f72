package serve

// Chaos suite for the serving layer: fault injection at the engine's
// execution and caching sites while the server is under concurrent
// load. The containment contract being pinned: the process never
// crashes, every failed request surfaces as a typed error response, the
// accounting stays consistent, and once the faults stop the same server
// keeps answering correctly — no poisoned cache, no leaked goroutines.

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/pathsel"
)

// TestServeChaosInjectedPanics drives concurrent load while exec.step
// visits panic periodically. Contained panics must answer 500 with the
// execution_failed code — never kill the server — and the server must
// answer correctly once the injector is gone.
func TestServeChaosInjectedPanics(t *testing.T) {
	g, srv, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	trace := buildTrace(t, g.Labels(), 150, 0, 13)

	inj := faultinject.NewInjector(
		// Panic on every 7th step visit, indefinitely.
		faultinject.Rule{Site: "exec.step", Skip: 3, Count: 0, Action: faultinject.ActPanic},
	)
	// Arm the panic rule modulo-style by reinstalling a fresh injector
	// being unnecessary: Count 0 with Skip 3 panics every visit after the
	// third, so the early queries succeed and later ones fail — both
	// outcomes appear under load.
	faultinject.Install(inj)
	t.Cleanup(faultinject.Uninstall)

	rep, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("%d transport errors — the server dropped connections under injected panics", rep.TransportErrors)
	}
	sum := rep.OK + rep.Degraded + rep.BadRequest + rep.Rejected + rep.Overload + rep.Timeout + rep.Failed
	if sum != int64(rep.Queries) {
		t.Fatalf("outcomes sum to %d, want %d: %+v", sum, rep.Queries, rep)
	}
	if rep.Failed == 0 {
		t.Fatalf("no 500s despite an armed always-panic rule (triggered %d times): %+v",
			inj.Triggered("exec.step"), rep)
	}
	// Typed-body check: with the rule still armed, a cache-missing query
	// must answer a JSON execution_failed error, not a bare 500.
	var er ErrorResponse
	if st := getJSON(t, ts.URL+"/query?q="+g.Labels()[2]+"/"+g.Labels()[2]+"/"+g.Labels()[2], &er); st != http.StatusInternalServerError {
		t.Fatalf("status %d under armed panic rule, want 500", st)
	} else if er.Code != CodeExecutionFailed {
		t.Fatalf("error code %q, want %q", er.Code, CodeExecutionFailed)
	}

	// Faults stop; the same server must answer every query correctly.
	faultinject.Uninstall()
	for _, q := range []string{"a/b", "b/c/a", "c/a"} {
		want, err := g.TrueSelectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResponse
		if st := getJSON(t, ts.URL+"/query?q="+q, &qr); st != http.StatusOK {
			t.Fatalf("post-chaos query %q status %d, want 200", q, st)
		}
		if qr.Result != want {
			t.Fatalf("post-chaos query %q result %d, want %d — chaos corrupted state", q, qr.Result, want)
		}
	}
	if c := srv.Counters(); c.InFlight != 0 {
		t.Fatalf("in-flight %d after quiescence", c.InFlight)
	}
}

// TestServeChaosCacheAllocFailures fails every relcache publish while
// concurrent load runs: the cache degrades to a no-op (every miss
// recomputes) but results must stay exact and no request may fail.
func TestServeChaosCacheAllocFailures(t *testing.T) {
	g, _, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	trace := buildTrace(t, g.Labels(), 100, 0, 17)

	faultinject.Install(faultinject.NewInjector(
		faultinject.Rule{Site: "relcache.put", Count: 0, Action: faultinject.ActFail},
	))
	t.Cleanup(faultinject.Uninstall)

	rep, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors != 0 || rep.OK != int64(rep.Queries) {
		t.Fatalf("cache alloc failures must be invisible to clients: %+v", rep)
	}
	// Spot-check exactness against the ground truth while the rule is
	// still armed.
	q := g.Labels()[0] + "/" + g.Labels()[1]
	want, err := g.TrueSelectivity(q)
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if st := getJSON(t, ts.URL+"/query?q="+q, &qr); st != http.StatusOK || qr.Result != want {
		t.Fatalf("query %q under cache failures: status %d result %d, want 200/%d", q, st, qr.Result, want)
	}
}

// TestServeChaosDelayTimeout delays execution past QueryTimeout under
// load: delayed requests must answer 504 (typed), fast-path cache hits
// may still succeed, and recovery must be immediate once the delays
// stop.
func TestServeChaosDelayTimeout(t *testing.T) {
	g, srv, ts := newTestServer(t, pathsel.Config{
		CacheBytes:   pathsel.DefaultCacheBytes,
		QueryTimeout: 50 * time.Millisecond,
	})
	trace := buildTrace(t, g.Labels(), 40, 0, 19)

	faultinject.Install(faultinject.NewInjector(
		faultinject.Rule{Site: "exec.step", Count: 0, Action: faultinject.ActDelay, Delay: 80 * time.Millisecond},
	))
	t.Cleanup(faultinject.Uninstall)

	rep, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("%d transport errors under injected delays", rep.TransportErrors)
	}
	if rep.Timeout == 0 {
		t.Fatalf("no 504s despite every step sleeping past QueryTimeout: %+v", rep)
	}
	faultinject.Uninstall()
	var qr QueryResponse
	if st := getJSON(t, ts.URL+"/query?q=a/b", &qr); st != http.StatusOK {
		t.Fatalf("post-delay query status %d, want 200", st)
	}
	if c := srv.Counters(); c.InFlight != 0 {
		t.Fatalf("in-flight %d after quiescence", c.InFlight)
	}
}

// TestServeChaosLeakHygiene runs a panic-heavy chaos burst and asserts
// the goroutine count returns to baseline after server shutdown — the
// serving layer's no-leak acceptance criterion under faults.
func TestServeChaosLeakHygiene(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		g, _, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
		trace := buildTrace(t, g.Labels(), 80, 0, 23)
		faultinject.Install(faultinject.NewInjector(
			faultinject.Rule{Site: "exec.step", Skip: 2, Count: 0, Action: faultinject.ActPanic},
			faultinject.Rule{Site: "relcache.put", Skip: 1, Count: 0, Action: faultinject.ActFail},
		))
		defer faultinject.Uninstall()
		if _, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 8}); err != nil {
			t.Fatal(err)
		}
		ts.Close()
		http.DefaultClient.CloseIdleConnections()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count %d did not return to baseline %d after chaos shutdown",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeBatchCancel runs a batch whose request context is already
// dead: every item answers cancelled — each query took ExecuteCtx's path,
// admission and then the dead context, and none touched the graph — the
// counters take one overload per item, and the same server then answers
// the batch exactly.
func TestServeBatchCancel(t *testing.T) {
	g, srv, ts := newTestServer(t, pathsel.Config{Workers: 1, CacheBytes: pathsel.DefaultCacheBytes})
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = []string{"a/b/a", "b/a/b", "a/(a|b)/c"}[i%3]
	}
	xs := make([]*pathsel.Expr, len(queries))
	if _, err := srv.compile(queries, xs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := make([]BatchItem, len(xs))
	if err := srv.run(ctx, xs, items); err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		if item.Code != CodeCancelled || item.Query != queries[i] {
			t.Fatalf("item %d: %+v, want %q cancelled", i, item, queries[i])
		}
	}
	if c := srv.Counters(); c.Overload != int64(len(xs)) {
		t.Fatalf("overload counter %d, want %d", c.Overload, len(xs))
	}
	if cs, _ := srv.est.CacheStats(); cs.Hits+cs.Misses+cs.Puts != 0 {
		t.Fatalf("a dead batch touched the cache: %+v", cs)
	}
	var br BatchResponse
	if st := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: queries}, &br); st != http.StatusOK {
		t.Fatalf("follow-up batch status %d", st)
	}
	for i, item := range br.Results {
		want, err := g.TruePatternSelectivity(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if item.Error != "" || item.Result != want {
			t.Fatalf("follow-up item %d (%s): %+v, want result %d", i, queries[i], item, want)
		}
	}
}

// TestServeBatchPerQueryIsolation pins that a per-query policy kill never
// takes the rest of a batch with it: cheap queries answer exactly,
// expensive ones carry their own typed code.
func TestServeBatchPerQueryIsolation(t *testing.T) {
	g, srv, ts := newTestServer(t, pathsel.Config{Workers: 1, MaxPlanCost: 0.5})
	queries := []string{"a", "a/b/a", "b", "b/a/b", "a/b"}
	var br BatchResponse
	if st := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: queries}, &br); st != http.StatusOK {
		t.Fatalf("/batch status %d", st)
	}
	for i, item := range br.Results {
		long := len(queries[i]) > 1
		switch {
		case long && item.Code != CodeAdmissionDenied:
			t.Fatalf("item %d (%s): %+v, want %s", i, queries[i], item, CodeAdmissionDenied)
		case !long && item.Error != "":
			t.Fatalf("item %d (%s): %+v, want an answer", i, queries[i], item)
		}
		if !long {
			want, err := g.TrueSelectivity(queries[i])
			if err != nil {
				t.Fatal(err)
			}
			if item.Result != want {
				t.Fatalf("item %d (%s): result %d, want %d", i, queries[i], item.Result, want)
			}
		}
	}
	if c := srv.Counters(); c.OK != 2 || c.Rejected != 3 {
		t.Fatalf("counters %+v, want 2 ok and 3 rejected", c)
	}
}
