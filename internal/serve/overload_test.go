package serve

// Overload-control suite: the 429-vs-degraded-vs-503 wire contract for
// every outcome path (including mid-drain), shed/brownout/retry cycles
// under bursty load with fault injection, brownout escalation and
// recovery, and the leak-hygiene criterion across 100 overload cycles.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/workload"
	"repro/pathsel"
)

// newOverloadServer is newTestServer with the overload controller
// enabled.
func newOverloadServer(t testing.TB, cfg pathsel.Config, oc OverloadConfig) (*pathsel.Graph, *Server, *httptest.Server) {
	t.Helper()
	g := testGraph(t, 11, 40, 3, 300)
	if cfg.MaxPathLength == 0 {
		cfg.MaxPathLength = 3
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 16
	}
	est, err := pathsel.Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOverload(est, oc)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return g, srv, ts
}

// getWire fetches a URL and returns status, decoded bodies, and whether
// a Retry-After header was present.
func getWire(t *testing.T, url string) (status int, qr QueryResponse, er ErrorResponse, retryAfter bool) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	status = resp.StatusCode
	retryAfter = resp.Header.Get("Retry-After") != ""
	if status == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	} else if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("GET %s: decoding error body: %v", url, err)
	}
	return status, qr, er, retryAfter
}

// TestOverloadWireContract pins status code, wire code, and Retry-After
// presence for every outcome path the overload layer can answer with —
// including requests arriving mid-drain.
func TestOverloadWireContract(t *testing.T) {
	// A controller without brownout: its ticks move nothing, so
	// pre-seeded limiter state stays put for the duration of a case.
	inert := OverloadConfig{MaxInFlight: 2, QueueLimit: 2, QueueTimeout: 50 * time.Millisecond}

	t.Run("ok exact", func(t *testing.T) {
		g, _, ts := newOverloadServer(t, pathsel.Config{}, inert)
		want, err := g.TrueSelectivity("a/b")
		if err != nil {
			t.Fatal(err)
		}
		st, qr, _, ra := getWire(t, ts.URL+"/query?q=a/b")
		if st != http.StatusOK || qr.Degraded || ra {
			t.Fatalf("status %d degraded %v retry-after %v, want plain 200", st, qr.Degraded, ra)
		}
		if qr.Result != want {
			t.Fatalf("result %d, want %d", qr.Result, want)
		}
	})

	t.Run("degraded by admission", func(t *testing.T) {
		oc := inert
		oc.MaxPlanCost, oc.DegradeToEstimate = 1e-12, true
		_, _, ts := newOverloadServer(t, pathsel.Config{}, oc)
		st, qr, _, ra := getWire(t, ts.URL+"/query?q=a/b")
		if st != http.StatusOK || !qr.Degraded || qr.DegradedBy != CodeAdmissionDenied || ra {
			t.Fatalf("status %d body %+v retry-after %v, want degraded 200 by %q", st, qr, ra, CodeAdmissionDenied)
		}
	})

	t.Run("degraded by brownout", func(t *testing.T) {
		_, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{MaxInFlight: 2, Brownout: true})
		// Pre-seed the deepest tier, frozen: the clock stands still, so no
		// tick comes due, and any query with join cost degrades.
		srv.lim.mu.Lock()
		srv.lim.tier = maxBrownoutTier
		srv.lim.costThreshold = 1e-12
		srv.lim.now = stoppedAt(srv.lim.lastTick)
		srv.lim.mu.Unlock()
		st, qr, _, ra := getWire(t, ts.URL+"/query?q=a/b")
		if st != http.StatusOK || !qr.Degraded || qr.DegradedBy != CodeBrownout || ra {
			t.Fatalf("status %d body %+v retry-after %v, want degraded 200 by %q", st, qr, ra, CodeBrownout)
		}
		if qr.Work != 0 {
			t.Fatalf("brownout answer did graph work: %+v", qr)
		}
		if c := srv.Counters(); c.BrownoutDegraded != 1 || c.Degraded != 1 {
			t.Fatalf("counters %+v, want one brownout-degraded", c)
		}
	})

	t.Run("cost rejection keeps admission_denied without retry-after", func(t *testing.T) {
		oc := inert
		oc.MaxPlanCost = 1e-12
		_, _, ts := newOverloadServer(t, pathsel.Config{}, oc)
		st, _, er, ra := getWire(t, ts.URL+"/query?q=a/b")
		if st != http.StatusTooManyRequests || er.Code != CodeAdmissionDenied || ra || er.RetryAfterMs != 0 {
			t.Fatalf("status %d code %q retry-after %v/%d, want plain 429 %q",
				st, er.Code, ra, er.RetryAfterMs, CodeAdmissionDenied)
		}
	})

	t.Run("shed on full queue", func(t *testing.T) {
		_, srv, ts := newOverloadServer(t, pathsel.Config{}, inert)
		saturate(srv)
		st, _, er, ra := getWire(t, ts.URL+"/query?q=a/b")
		if st != http.StatusTooManyRequests || er.Code != CodeOverloaded {
			t.Fatalf("status %d code %q, want 429 %q", st, er.Code, CodeOverloaded)
		}
		if !ra || er.RetryAfterMs < 1 {
			t.Fatalf("shed without a usable hint: header %v, retry_after_ms %d", ra, er.RetryAfterMs)
		}
		if c := srv.Counters(); c.Shed != 1 || c.Rejected != 0 {
			t.Fatalf("counters %+v, want exactly one shed", c)
		}
	})

	t.Run("queued request served when capacity frees", func(t *testing.T) {
		g, _, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{
			MaxInFlight: 1, QueueLimit: 4, QueueTimeout: 2 * time.Second,
		})
		faultinject.Install(faultinject.NewInjector(
			faultinject.Rule{Site: "exec.step", Count: 1, Action: faultinject.ActDelay, Delay: 60 * time.Millisecond},
		))
		t.Cleanup(faultinject.Uninstall)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?q=a/b/c") // occupies the only slot
			if err == nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(20 * time.Millisecond) // let the slow query take the slot
		want, err := g.TrueSelectivity("b/a")
		if err != nil {
			t.Fatal(err)
		}
		st, qr, _, _ := getWire(t, ts.URL+"/query?q=b/a")
		wg.Wait()
		if st != http.StatusOK || qr.Result != want {
			t.Fatalf("queued query: status %d result %d, want 200/%d", st, qr.Result, want)
		}
	})

	t.Run("draining refuses with retry-after", func(t *testing.T) {
		for _, withController := range []bool{true, false} {
			name := map[bool]string{true: "controller", false: "bare"}[withController]
			var srv *Server
			var ts *httptest.Server
			if withController {
				_, srv, ts = newOverloadServer(t, pathsel.Config{}, inert)
			} else {
				_, srv, ts = newTestServer(t, pathsel.Config{})
			}
			srv.StartDrain()
			st, _, er, ra := getWire(t, ts.URL+"/query?q=a/b")
			if st != http.StatusServiceUnavailable || er.Code != CodeDraining || !ra || er.RetryAfterMs < 1 {
				t.Fatalf("%s mid-drain: status %d code %q retry-after %v/%d, want 503 %q with hints",
					name, st, er.Code, ra, er.RetryAfterMs, CodeDraining)
			}
			var body map[string]any
			if hst := getJSON(t, ts.URL+"/healthz", &body); hst != http.StatusServiceUnavailable || body["status"] != "draining" {
				t.Fatalf("%s mid-drain healthz: status %d body %v, want 503 draining", name, hst, body)
			}
			var stats StatsResponse
			getJSON(t, ts.URL+"/stats", &stats)
			if withController && (stats.Overload == nil || !stats.Overload.Draining) {
				t.Fatalf("%s mid-drain /stats overload %+v, want draining", name, stats.Overload)
			}
		}
	})

	t.Run("deadline still 504", func(t *testing.T) {
		oc := inert
		oc.QueryTimeout = time.Nanosecond
		_, _, ts := newOverloadServer(t, pathsel.Config{}, oc)
		st, _, er, ra := getWire(t, ts.URL+"/query?q=a/b/c")
		if st != http.StatusGatewayTimeout || er.Code != CodeDeadline || ra {
			t.Fatalf("status %d code %q retry-after %v, want plain 504 %q", st, er.Code, ra, CodeDeadline)
		}
	})

	t.Run("admit-site panic contained as 500", func(t *testing.T) {
		_, srv, ts := newOverloadServer(t, pathsel.Config{}, inert)
		faultinject.Install(faultinject.NewInjector(
			faultinject.Rule{Site: "serve.admit", Count: 1, Action: faultinject.ActPanic},
		))
		t.Cleanup(faultinject.Uninstall)
		st, _, er, _ := getWire(t, ts.URL+"/query?q=a/b")
		if st != http.StatusInternalServerError || er.Code != CodeExecutionFailed {
			t.Fatalf("status %d code %q, want typed 500 %q — a severed connection means the panic escaped",
				st, er.Code, CodeExecutionFailed)
		}
		faultinject.Uninstall()
		// The slot accounting must survive the contained panic.
		st, _, _, _ = getWire(t, ts.URL+"/query?q=a/b")
		if st != http.StatusOK {
			t.Fatalf("follow-up query status %d, want 200", st)
		}
		if c := srv.Counters(); c.InFlight != 0 {
			t.Fatalf("in-flight %d after contained panic", c.InFlight)
		}
	})
}

// loadPartition asserts the report's outcome counters exactly partition
// the trace.
func loadPartition(t *testing.T, rep *LoadReport) {
	t.Helper()
	sum := rep.OK + rep.Degraded + rep.BadRequest + rep.Rejected + rep.Shed +
		rep.Overload + rep.Timeout + rep.Failed + rep.TransportErrors
	if sum != int64(rep.Queries) {
		t.Fatalf("outcomes sum to %d, want %d: %+v", sum, rep.Queries, rep)
	}
}

// TestOverloadShedsUnderBurst saturates a 1-slot server with slow
// (jitter-delayed) queries and pins: sheds happen and carry usable
// hints, the retrying client's accounting partitions the trace, no
// connection is dropped, and shed requests never held execution
// capacity (peak in-flight stays at the limit).
func TestOverloadShedsUnderBurst(t *testing.T) {
	g, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{
		MaxInFlight: 1, QueueLimit: 2, QueueTimeout: 5 * time.Millisecond,
	})
	faultinject.Install(faultinject.NewInjector(
		faultinject.Rule{Site: "exec.step", Count: 0, Action: faultinject.ActDelay,
			Delay: 10 * time.Millisecond, Jitter: 10 * time.Millisecond},
	))
	t.Cleanup(faultinject.Uninstall)

	trace := buildTrace(t, g.Labels(), 60, 0, 29) // saturation: all arrivals at once
	rep, err := RunLoad(ts.URL, trace, LoadOptions{
		Concurrency: 16,
		Retry:       RetryPolicy{Max: 2, Base: 2 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	loadPartition(t, rep)
	if rep.TransportErrors != 0 {
		t.Fatalf("%d transport errors under overload — sheds must be clean responses: %+v", rep.TransportErrors, rep)
	}
	if rep.Shed == 0 {
		t.Fatalf("no sheds despite 16-way saturation of a 1-slot queue-2 server: %+v", rep)
	}
	if rep.Retries == 0 {
		t.Fatalf("retrying client never retried despite %d sheds: %+v", rep.Shed, rep)
	}
	if rep.OK+rep.Degraded == 0 {
		t.Fatalf("nothing was served at all: %+v", rep)
	}

	var stats StatsResponse
	if st := getJSON(t, ts.URL+"/stats", &stats); st != http.StatusOK || stats.Overload == nil {
		t.Fatalf("/stats status %d overload %v, want populated overload section", st, stats.Overload)
	}
	ov := stats.Overload
	if ov.PeakInFlight > 1 {
		t.Fatalf("peak in-flight %d above the limit 1 — queued or shed requests held execution capacity", ov.PeakInFlight)
	}
	if ov.Shed != srv.Counters().Shed || ov.Shed == 0 {
		t.Fatalf("stats shed %d vs counters %d, want equal and nonzero", ov.Shed, srv.Counters().Shed)
	}
	if c := srv.Counters(); c.InFlight != 0 {
		t.Fatalf("in-flight %d after quiescence", c.InFlight)
	}
}

// TestBrownoutEscalatesAndRecovers drives sustained shed pressure until
// the brownout tier escalates, then removes the pressure and pins the
// recovery criterion: the tier de-escalates to 0, the queue drains,
// /healthz returns to 200, and a paced follow-up run is served cleanly
// and exactly.
func TestBrownoutEscalatesAndRecovers(t *testing.T) {
	g, _, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{
		MaxInFlight: 1, QueueLimit: 2, QueueTimeout: 2 * time.Millisecond, Brownout: true,
	})
	faultinject.Install(faultinject.NewInjector(
		faultinject.Rule{Site: "exec.step", Count: 0, Action: faultinject.ActDelay,
			Delay: 8 * time.Millisecond, Jitter: 8 * time.Millisecond},
	))
	t.Cleanup(faultinject.Uninstall)

	// Pressure phase: concurrent slow load until the tier escalates.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := []string{"a/b/c", "b/a", "c/b/a", "a/c"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/query?q=" + qs[(i+w)%len(qs)])
				if err == nil {
					resp.Body.Close()
				}
			}
		}(w)
	}
	escalated := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var stats StatsResponse
		getJSON(t, ts.URL+"/stats", &stats)
		if stats.Overload != nil && stats.Overload.BrownoutTier > 0 {
			escalated = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !escalated {
		t.Fatal("brownout tier never escalated under sustained shed pressure")
	}

	// Recovery phase: pressure and faults gone, the tier must fall back
	// to 0 and the queue drain (stats reads advance the controller).
	faultinject.Uninstall()
	deadline = time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		var stats StatsResponse
		getJSON(t, ts.URL+"/stats", &stats)
		if ov := stats.Overload; ov != nil && ov.BrownoutTier == 0 && ov.QueueDepth == 0 && ov.InFlight == 0 {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		var stats StatsResponse
		getJSON(t, ts.URL+"/stats", &stats)
		t.Fatalf("brownout did not de-escalate after pressure cleared: %+v", stats.Overload)
	}
	if st := getJSON(t, ts.URL+"/healthz", nil); st != http.StatusOK {
		t.Fatalf("healthz %d after recovery, want 200", st)
	}

	// Clean paced run: every answer exact and undegraded. One worker so
	// the fast path always has a free slot — the service-time EWMA is
	// still polluted by the chaos phase and would shed colliding
	// arrivals against the 2ms queue budget.
	trace := zipfTrace(t, g.Labels(), workload.TraceOptions{
		Rate: 400, N: 30, Seed: 31,
		Arrival: workload.ArrivalOnOff, OnDur: 20 * time.Millisecond, OffDur: 60 * time.Millisecond,
	})
	rep, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	loadPartition(t, rep)
	if rep.OK != int64(rep.Queries) {
		t.Fatalf("post-recovery run not clean: %+v", rep)
	}
	for _, q := range []string{"a/b", "b/c/a", "c/a"} {
		want, err := g.TrueSelectivity(q)
		if err != nil {
			t.Fatal(err)
		}
		st, qr, _, _ := getWire(t, ts.URL+"/query?q="+q)
		if st != http.StatusOK || qr.Degraded || qr.Result != want {
			t.Fatalf("post-recovery %q: status %d %+v, want exact %d", q, st, qr, want)
		}
	}
}

// TestOverloadCyclesLeakFree runs 100 shed/brownout/retry cycles against
// one server and pins the leak criteria: goroutines return to baseline,
// nothing stays in flight or queued, and every non-degraded answer stays
// bit-identical to the ground truth afterwards.
func TestOverloadCyclesLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		g, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{
			MaxInFlight: 1, QueueLimit: 2, QueueTimeout: time.Millisecond, Brownout: true,
		})
		faultinject.Install(faultinject.NewInjector(
			faultinject.Rule{Site: "exec.step", Count: 0, Action: faultinject.ActDelay,
				Delay: time.Millisecond, Jitter: 2 * time.Millisecond},
		))
		defer faultinject.Uninstall()

		qs := []string{"a/b/c", "b/a", "c/b/a", "a/c", "b/c", "a/b"}
		for cycle := 0; cycle < 100; cycle++ {
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// One retry per request, honoring the server hint —
					// each cycle mixes served, shed, degraded, and retried
					// outcomes.
					for attempt := 0; attempt < 2; attempt++ {
						out, status := issue(ts.URL, []string{qs[(cycle+w)%len(qs)]}, false)
						if transportErr := status == 0; transportErr {
							t.Errorf("cycle %d: transport error", cycle)
							return
						}
						if out.RetryAfterMs == 0 {
							return
						}
						time.Sleep(time.Duration(out.RetryAfterMs) * time.Millisecond)
					}
				}(w)
			}
			wg.Wait()
		}
		faultinject.Uninstall()

		// Post-chaos: exactness and drained controller state.
		for _, q := range []string{"a/b", "b/c/a"} {
			want, err := g.TrueSelectivity(q)
			if err != nil {
				t.Fatal(err)
			}
			// Brownout may still be escalated right after the cycles; poll
			// until the controller has relaxed enough to answer exactly.
			deadline := time.Now().Add(5 * time.Second)
			for {
				st, qr, _, _ := getWire(t, ts.URL+"/query?q="+q)
				if st == http.StatusOK && !qr.Degraded {
					if qr.Result != want {
						t.Fatalf("post-cycles %q: result %d, want %d — overload cycles corrupted state", q, qr.Result, want)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("post-cycles %q: no exact answer before deadline (status %d)", q, st)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		var stats StatsResponse
		getJSON(t, ts.URL+"/stats", &stats)
		if ov := stats.Overload; ov == nil || ov.InFlight != 0 || ov.QueueDepth != 0 {
			t.Fatalf("controller not drained after cycles: %+v", stats.Overload)
		}
		if ov := stats.Overload; ov.Shed == 0 && ov.BrownoutDegraded == 0 {
			t.Fatalf("100 cycles produced neither sheds nor brownout degrades — the test exercised nothing: %+v", ov)
		}
		if c := srv.Counters(); c.InFlight != 0 {
			t.Fatalf("in-flight %d after cycles", c.InFlight)
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
			t.Fatalf("goroutine count %d did not return to baseline %d after overload cycles",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchShedsAsOneUnit pins that a /batch occupies a single slot and
// is shed wholesale with the overloaded code when the queue is full.
func TestBatchShedsAsOneUnit(t *testing.T) {
	_, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{
		MaxInFlight: 1, QueueLimit: 1, QueueTimeout: 10 * time.Millisecond,
	})
	saturate(srv)
	ans, status := issue(ts.URL, []string{"a/b", "b/c"}, true)
	items, code := ans.Results, ans.Code
	if transportErr := status == 0; transportErr {
		t.Fatal("transport error on shed batch")
	}
	if status != http.StatusTooManyRequests || code != CodeOverloaded || items != nil {
		t.Fatalf("batch shed: status %d code %q items %v, want 429 %q", status, code, items, CodeOverloaded)
	}
}

// TestRetryWaitContract pins the client backoff: the wait honors the
// server hint, grows exponentially from Base, and never exceeds retryCap.
func TestRetryWaitContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pol := RetryPolicy{Max: 3, Base: 2 * time.Millisecond}
	if w := retryWait(rng, pol, 1, 20); w < 20*time.Millisecond {
		t.Fatalf("wait %v ignored a 20ms server hint", w)
	}
	if w := retryWait(rng, pol, 3, 0); w < 8*time.Millisecond {
		t.Fatalf("attempt-3 wait %v below exponential floor 8ms", w)
	}
	for attempt := 1; attempt < 30; attempt++ {
		if w := retryWait(rng, pol, attempt, 1000); w > retryCap {
			t.Fatalf("attempt-%d wait %v exceeds cap %v", attempt, w, retryCap)
		}
	}
}

// TestDeepestTierDegradesEveryJoin pins tier 3's threshold: a query with
// any join cost at all degrades — one that costs exactly the smallest
// cost observed too, and with no cost observed yet — while a free plan
// still executes.
func TestDeepestTierDegradesEveryJoin(t *testing.T) {
	for _, costs := range [][]float64{nil, {5, 5, 5, 5, 5, 5, 5, 5, 5, 5}} {
		l := newLimiter(OverloadConfig{MaxInFlight: 1, Brownout: true})
		for _, c := range costs {
			l.recordCost(c)
		}
		l.mu.Lock()
		l.tier = maxBrownoutTier
		l.tickLocked(l.lastTick.Add(tickEvery))
		tier, th := l.tier, l.costThreshold
		l.mu.Unlock()
		if tier != maxBrownoutTier {
			t.Fatalf("ring %v: one quiet tick left tier %d, want %d", costs, tier, maxBrownoutTier)
		}
		if th != math.SmallestNonzeroFloat64 {
			t.Fatalf("ring %v: tier-%d threshold %v, want the smallest positive float so every join degrades", costs, tier, th)
		}
	}
}

// TestBrownoutAnswersTheEstimate pins what a brownout tier answers. A
// query whose plan costs more than the tier's threshold gets its rounded
// histogram estimate — the answer OverloadConfig.DegradeToEstimate gives the same
// query — with its plan and estimated cost, no work and no cache traffic,
// marked degraded_by brownout: a concrete path and an RPQ from /query,
// and the same items inside a /batch whose cheap entry stays exact. Such
// an entry is answered even when the request's context is dead, and a
// threshold of 0 degrades nothing.
func TestBrownoutAnswersTheEstimate(t *testing.T) {
	_, srv, ts := newOverloadServer(t, pathsel.Config{Workers: 1, CacheBytes: 1 << 20},
		OverloadConfig{MaxInFlight: 2, Brownout: true})
	const threshold = 0.5
	setThreshold := func(th float64) {
		srv.lim.mu.Lock()
		srv.lim.costThreshold = th
		srv.lim.now = stoppedAt(srv.lim.lastTick) // no tick recuts it
		srv.lim.mu.Unlock()
	}
	// fallback refuses every join by cost and degrades the refusal.
	fallback := NewWithOverload(srv.est, OverloadConfig{MaxPlanCost: 1e-12, DegradeToEstimate: true})
	expensive := []string{"a/b/a", "a/(a|b)/a"}
	// want is the brownout answer to q, as /query's body without latency.
	want := func(q string) QueryResponse {
		t.Helper()
		x, err := srv.est.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		st, degradedBy, err := fallback.execute(context.Background(), x, 0)
		if err != nil || !errors.Is(degradedBy, pathsel.ErrAdmissionDenied) {
			t.Fatalf("%s under DegradeToEstimate: %+v, %v, %v — want a degraded answer", q, st, degradedBy, err)
		}
		plan := x.Plan()
		if plan.EstimatedCost <= threshold {
			t.Fatalf("%s costs %v, not above the threshold %v", q, plan.EstimatedCost, threshold)
		}
		return QueryResponse{Query: q, Result: st.Result, Plan: plan.Description,
			EstimatedCost: plan.EstimatedCost, Degraded: true, DegradedBy: CodeBrownout}
	}
	exact := func(q string) int64 {
		t.Helper()
		x, err := srv.est.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		st, err := x.ExecuteCtx(context.Background())
		if err != nil {
			t.Fatalf("%s in process: %+v, %v", q, st, err)
		}
		return st.Result
	}

	setThreshold(threshold)
	cheap := exact("a")
	for _, q := range expensive {
		var qr QueryResponse
		if st := getJSON(t, ts.URL+"/query?pattern="+url.QueryEscape(q), &qr); st != http.StatusOK {
			t.Fatalf("/query %s: status %d, want 200", q, st)
		}
		qr.LatencyNs = 0
		if w := want(q); qr != w {
			t.Fatalf("/query %s under brownout:\n got  %+v\n want %+v", q, qr, w)
		}
	}
	var free QueryResponse
	if getJSON(t, ts.URL+"/query?q=a", &free); free.Degraded || free.Result != cheap {
		t.Fatalf("a free plan under brownout: %+v, want the exact %d", free, cheap)
	}
	var ans BatchResponse
	if st := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: append([]string{"a"}, expensive...)}, &ans); st != http.StatusOK || len(ans.Results) != 3 {
		t.Fatalf("/batch: status %d with %d items, want 200 with 3", st, len(ans.Results))
	}
	if r := ans.Results[0]; r.Degraded || r.Code != "" || r.Result != cheap {
		t.Fatalf("cheap batch entry: %+v, want the exact %d", r, cheap)
	}
	for i, q := range expensive {
		r := ans.Results[i+1]
		r.LatencyNs = 0
		if w := (BatchItem{QueryResponse: want(q)}); r != w {
			t.Fatalf("batch entry %s:\n got  %+v\n want %+v", q, r, w)
		}
	}
	if c := srv.Counters(); c.Degraded != 4 || c.BrownoutDegraded != 4 || c.OK != 2 {
		t.Fatalf("counters %+v, want 4 brownout-degraded and 2 exact", c)
	}

	// A dead request context: the entry over the threshold still answers
	// its estimate; the one that would execute is cancelled.
	xs := make([]*pathsel.Expr, 2)
	if _, err := srv.compile([]string{"a", expensive[0]}, xs); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	items := make([]BatchItem, 2)
	if err := srv.run(dead, xs, items); err != nil {
		t.Fatal(err)
	}
	if items[0].Code != CodeCancelled || items[1].Code != "" || items[1].DegradedBy != CodeBrownout {
		t.Fatalf("dead context: items %+v, want a cancelled exact entry and a brownout answer", items)
	}

	setThreshold(0)
	for _, q := range expensive {
		var qr QueryResponse
		if getJSON(t, ts.URL+"/query?pattern="+url.QueryEscape(q), &qr); qr.Degraded || qr.Result != exact(q) {
			t.Fatalf("/query %s at threshold 0: %+v, want an exact answer", q, qr)
		}
	}
}

// TestBrownoutTierMachine drives the tier state machine on explicit ticks
// tickEvery apart, with the pressure set by hand — queue occupancy on some
// ticks, the shed fraction on others — and checks the tier, both
// hysteresis counters and the cost threshold after every tick: the tier
// rises one step after exactly brownoutUp ticks at or above brownoutHi
// and falls one after exactly brownoutDown at or below brownoutLo, within
// [0, maxBrownoutTier]; a tick inside the band resets both counters; a
// call before tickEvery has passed changes nothing; and tiers 1 and 2 cut
// p90 and p50 from the cost ring.
func TestBrownoutTierMachine(t *testing.T) {
	const queueLimit = 4
	l := newLimiter(OverloadConfig{MaxInFlight: 1, QueueLimit: queueLimit, Brownout: true})
	// The ring holds 1 … 100 in a shuffled order; its nearest-rank cuts at
	// int(q·(n−1)) are 90 (p90) and 50 (p50).
	for _, c := range rand.New(rand.NewSource(5)).Perm(100) {
		l.recordCost(float64(c + 1))
	}
	thresholds := [maxBrownoutTier + 1]float64{0, 90, 50, math.SmallestNonzeroFloat64}
	now := l.lastTick
	// tick sets the pressure to sig for one tick, on the queue or on the
	// shed fraction, and runs it.
	tick := func(sig float64, byShed bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.queue, l.shedTick, l.admittedTick = l.queue[:0], 0, 0
		if byShed {
			l.shedTick, l.admittedTick = int64(sig*queueLimit), int64((1-sig)*queueLimit)
		}
		for !byShed && len(l.queue) < int(sig*queueLimit) {
			l.queue = append(l.queue, &waiter{ready: make(chan struct{})})
		}
		now = now.Add(tickEvery)
		l.tickLocked(now)
	}
	check := func(when string, tier, up, down int) {
		t.Helper()
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.tier != tier || l.upTicks != up || l.downTicks != down || l.costThreshold != thresholds[tier] {
			t.Fatalf("%s: tier %d, up %d, down %d, threshold %v; want tier %d, up %d, down %d, threshold %v",
				when, l.tier, l.upTicks, l.downTicks, l.costThreshold, tier, up, down, thresholds[tier])
		}
	}
	const hi, lo, band = brownoutHi, brownoutLo, (brownoutHi + brownoutLo) / 2

	// Up to the deepest tier, exactly brownoutUp ticks at the watermark a
	// step, and no further.
	for tier := 0; tier < maxBrownoutTier; tier++ {
		for i := 1; i < brownoutUp; i++ {
			tick(hi, i%2 == 0)
			check(fmt.Sprintf("tier %d, high tick %d", tier, i), tier, i, 0)
		}
		tick(hi, true)
		check(fmt.Sprintf("tier %d, high tick %d", tier, brownoutUp), tier+1, 0, 0)
	}
	for i := 1; i <= brownoutUp; i++ {
		tick(hi, i%2 == 0)
		check(fmt.Sprintf("deepest tier, high tick %d", i), maxBrownoutTier, i, 0)
	}

	// A call less than tickEvery after the last tick changes nothing, not
	// even the pressure it would have read.
	l.mu.Lock()
	l.shedTick, l.admittedTick = 1, 3
	l.tickLocked(now.Add(tickEvery - time.Nanosecond))
	early := l.shedTick == 1 && l.admittedTick == 3 && l.lastTick.Equal(now)
	l.mu.Unlock()
	if !early {
		t.Fatal("a call before tickEvery had passed ran a tick")
	}
	check("an early call", maxBrownoutTier, brownoutUp, 0)

	// The band resets both counters, in either direction.
	tick(band, true)
	check("in the band after high ticks", maxBrownoutTier, 0, 0)
	for i := 1; i < brownoutDown; i++ {
		tick(lo, false)
		check(fmt.Sprintf("low tick %d before the band", i), maxBrownoutTier, 0, i)
	}
	tick(band, false)
	check("in the band after low ticks", maxBrownoutTier, 0, 0)

	// Down to tier 0, exactly brownoutDown ticks at the watermark a step,
	// and no further.
	for tier := maxBrownoutTier; tier > 0; tier-- {
		for i := 1; i < brownoutDown; i++ {
			tick(lo, i%2 == 1)
			check(fmt.Sprintf("tier %d, low tick %d", tier, i), tier, 0, i)
		}
		tick(lo, false)
		check(fmt.Sprintf("tier %d, low tick %d", tier, brownoutDown), tier-1, 0, 0)
	}
	for i := 1; i <= brownoutDown; i++ {
		tick(lo, i%2 == 1)
		check(fmt.Sprintf("tier 0, low tick %d", i), 0, 0, i)
	}
}

// complete passes one request through the limiter: it takes a slot and
// gives it back after service, the way a served request does.
func complete(l *limiter, service time.Duration) {
	l.mu.Lock()
	l.admitLocked()
	l.mu.Unlock()
	l.release(service)
}

// TestAdaptiveLimitAIMD drives the adaptive limit's AIMD step with no
// sleeps — release takes the service time as an argument — and checks the
// limit after every completion: it moves only on each adaptEvery-th one,
// decays by max(1, limit/8) down to MinInFlight while the service-time
// EWMA is over LatencyTarget, grows by 1 up to MaxInFlight while requests
// queue within target (and not while none queue), and never moves at a
// LatencyTarget of 0.
func TestAdaptiveLimitAIMD(t *testing.T) {
	const target = time.Millisecond
	// drive runs rounds of adaptEvery completions at service, checking the
	// limit after each completion against next applied once per round.
	drive := func(t *testing.T, l *limiter, rounds int, service time.Duration, next func(int) int) int {
		t.Helper()
		want := l.stats().Limit
		for r := 0; r < rounds; r++ {
			for i := 1; i <= adaptEvery; i++ {
				complete(l, service)
				if i == adaptEvery {
					want = next(want)
				}
				if got := l.stats().Limit; got != want {
					t.Fatalf("round %d, completion %d: limit %d, want %d", r, i, got, want)
				}
			}
		}
		return want
	}

	t.Run("decays over target to the floor", func(t *testing.T) {
		cfg := OverloadConfig{MaxInFlight: 64, MinInFlight: 5, LatencyTarget: target}
		l := newLimiter(cfg)
		// 64 → 5 takes 22 decays; the rounds after it hold at the floor.
		got := drive(t, l, 26, 10*target, func(limit int) int {
			return max(cfg.MinInFlight, limit-max(1, limit/8))
		})
		if got != cfg.MinInFlight {
			t.Fatalf("limit settled at %d, want the floor %d", got, cfg.MinInFlight)
		}
	})

	t.Run("grows while requests queue within target, to the ceiling", func(t *testing.T) {
		cfg := OverloadConfig{MaxInFlight: 8, MinInFlight: 2, LatencyTarget: target}
		l := newLimiter(cfg)
		// Every slot busy, as after a decay to the floor: a completion
		// frees one under the ceiling's worth in flight, so no queued
		// request is promoted and the queue stays non-empty.
		l.mu.Lock()
		l.limit, l.inFlight = cfg.MinInFlight, cfg.MaxInFlight
		l.mu.Unlock()
		same := func(limit int) int { return limit }
		drive(t, l, 2, target/2, same) // nothing queued: no growth
		l.mu.Lock()
		l.queue = append(l.queue, &waiter{ready: make(chan struct{})})
		l.mu.Unlock()
		got := drive(t, l, 9, target/2, func(limit int) int { return min(cfg.MaxInFlight, limit+1) })
		if got != cfg.MaxInFlight {
			t.Fatalf("limit settled at %d, want the ceiling %d", got, cfg.MaxInFlight)
		}
		if st := l.stats(); st.QueueDepth != 1 {
			t.Fatalf("queue depth %d, want the one request still queued", st.QueueDepth)
		}
	})

	t.Run("a zero target pins the limit", func(t *testing.T) {
		cfg := OverloadConfig{MaxInFlight: 8, MinInFlight: 2}
		l := newLimiter(cfg)
		drive(t, l, 4, 10*target, func(limit int) int { return limit })
	})
}
