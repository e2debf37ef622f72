package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/pathsel"
)

// testGraph builds a random labeled graph through the public facade.
func testGraph(t testing.TB, seed int64, vertices, labels, edges int) *pathsel.Graph {
	t.Helper()
	names := make([]string, labels)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	g := pathsel.NewGraph(vertices, names)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edges; i++ {
		if _, err := g.AddEdge(rng.Intn(vertices), names[rng.Intn(labels)], rng.Intn(vertices)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// newTestServer builds an estimator over a standard small graph and
// stands a Server up behind httptest.
func newTestServer(t testing.TB, cfg pathsel.Config) (*pathsel.Graph, *Server, *httptest.Server) {
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
	srv := New(est)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return g, srv, ts
}

// getJSON fetches a URL and decodes the body, returning the status.
func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, _, ts := newTestServer(t, pathsel.Config{})
	var body map[string]any
	if st := getJSON(t, ts.URL+"/healthz", &body); st != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200", st)
	}
	if body["status"] != "ok" {
		t.Fatalf("/healthz body %v, want status ok", body)
	}
}

// TestQueryHappyPathWarmCache pins the tentpole's serving contract: a
// valid query answers 200 with the exact selectivity, and the second
// identical request against the estimator-persistent cache reports
// nonzero cache hits while returning the same result.
func TestQueryHappyPathWarmCache(t *testing.T) {
	g, _, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	const q = "a/b/c"
	want, err := g.TrueSelectivity(q)
	if err != nil {
		t.Fatal(err)
	}
	var first, second QueryResponse
	if st := getJSON(t, ts.URL+"/query?q="+q, &first); st != http.StatusOK {
		t.Fatalf("first query status %d, want 200", st)
	}
	if first.Result != want {
		t.Fatalf("first query result %d, want exact selectivity %d", first.Result, want)
	}
	if first.CacheMisses == 0 {
		t.Fatalf("first query reported no cache misses against an empty cache: %+v", first)
	}
	if st := getJSON(t, ts.URL+"/query?q="+q, &second); st != http.StatusOK {
		t.Fatalf("second query status %d, want 200", st)
	}
	if second.Result != want {
		t.Fatalf("second query result %d, want %d", second.Result, want)
	}
	if second.CacheHits == 0 {
		t.Fatalf("second identical query reported no cache hits: %+v", second)
	}
	if second.Degraded {
		t.Fatalf("cached query reported degraded: %+v", second)
	}
}

func TestQueryMalformed(t *testing.T) {
	_, srv, ts := newTestServer(t, pathsel.Config{})
	cases := []struct {
		name, url, code string
	}{
		{"missing q", ts.URL + "/query", CodeBadRequest},
		{"both q and pattern", ts.URL + "/query?q=a&pattern=a", CodeBadRequest},
		{"unknown label", ts.URL + "/query?q=zzz", CodeBadRequest},
		{"empty segment", ts.URL + "/query?q=a%2F%2Fb", CodeBadPattern},
		{"unclosed group", ts.URL + "/query?pattern=%28a%7Cb", CodeBadPattern},
		{"inverted bounds", ts.URL + "/query?pattern=a%7B3%2C1%7D", CodeBadPattern},
		{"stacked quantifiers", ts.URL + "/query?pattern=a%3F%3F", CodeBadPattern},
		{"too long", ts.URL + "/query?q=a/a/a/a/a/a", CodeBadRequest},
	}
	for _, c := range cases {
		var er ErrorResponse
		if st := getJSON(t, c.url, &er); st != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, st)
		}
		if er.Code != c.code {
			t.Fatalf("%s: code %q, want %q", c.name, er.Code, c.code)
		}
		if er.Error == "" {
			t.Fatalf("%s: empty error message", c.name)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/query?q=a", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d, want 405", resp.StatusCode)
	}
	if c := srv.Counters(); c.BadRequest != int64(len(cases)) {
		t.Fatalf("bad-request counter %d, want %d", c.BadRequest, len(cases))
	}
}

// TestQueryAdmissionKill pins the 429-vs-degraded contract: with an
// unsatisfiable plan-cost gate, DegradeToEstimate off answers 429 with
// the typed code, and on answers 200 with the degraded-estimate body.
func TestQueryAdmissionKill(t *testing.T) {
	t.Run("rejected", func(t *testing.T) {
		_, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{MaxPlanCost: 1e-12})
		var er ErrorResponse
		if st := getJSON(t, ts.URL+"/query?q=a/b", &er); st != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", st)
		}
		if er.Code != CodeAdmissionDenied {
			t.Fatalf("code %q, want %q", er.Code, CodeAdmissionDenied)
		}
		if c := srv.Counters(); c.Rejected != 1 {
			t.Fatalf("rejected counter %d, want 1", c.Rejected)
		}
	})
	t.Run("degraded", func(t *testing.T) {
		_, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{MaxPlanCost: 1e-12, DegradeToEstimate: true})
		var qr QueryResponse
		if st := getJSON(t, ts.URL+"/query?q=a/b", &qr); st != http.StatusOK {
			t.Fatalf("status %d, want 200 (degraded)", st)
		}
		if !qr.Degraded || qr.DegradedBy != CodeAdmissionDenied {
			t.Fatalf("want degraded body with cause %q, got %+v", CodeAdmissionDenied, qr)
		}
		if qr.Result < 0 {
			t.Fatalf("degraded estimate is negative: %+v", qr)
		}
		if c := srv.Counters(); c.Degraded != 1 || c.Rejected != 0 {
			t.Fatalf("counters %+v, want exactly one degraded", c)
		}
	})
}

// TestQueryTimeout pins QueryTimeout expiry to 504 (or a degraded 200
// when DegradeToEstimate is on). A 1ns timeout is expired by the time
// the execution checks it, so the kill is deterministic.
func TestQueryTimeout(t *testing.T) {
	t.Run("expired", func(t *testing.T) {
		_, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{QueryTimeout: time.Nanosecond})
		var er ErrorResponse
		if st := getJSON(t, ts.URL+"/query?q=a/b/c", &er); st != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", st)
		}
		if er.Code != CodeDeadline {
			t.Fatalf("code %q, want %q", er.Code, CodeDeadline)
		}
		if c := srv.Counters(); c.Timeout != 1 {
			t.Fatalf("timeout counter %d, want 1", c.Timeout)
		}
	})
	t.Run("degraded", func(t *testing.T) {
		_, _, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{QueryTimeout: time.Nanosecond, DegradeToEstimate: true})
		var qr QueryResponse
		if st := getJSON(t, ts.URL+"/query?q=a/b/c", &qr); st != http.StatusOK {
			t.Fatalf("status %d, want 200 (degraded)", st)
		}
		if !qr.Degraded || qr.DegradedBy != CodeDeadline {
			t.Fatalf("want degraded body with cause %q, got %+v", CodeDeadline, qr)
		}
	})
}

// TestDegradeNeverMasksAFailure pins what DegradeToEstimate leaves
// alone: a contained execution panic answers 500 execution_failed, not
// the estimate — degradation is for resource policy, not for bugs.
func TestDegradeNeverMasksAFailure(t *testing.T) {
	_, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{DegradeToEstimate: true})
	faultinject.Install(faultinject.NewInjector(
		faultinject.Rule{Site: "exec.step", Count: 1, Action: faultinject.ActPanic},
	))
	t.Cleanup(faultinject.Uninstall)
	var er ErrorResponse
	if st := getJSON(t, ts.URL+"/query?q=a/b", &er); st != http.StatusInternalServerError || er.Code != CodeExecutionFailed {
		t.Fatalf("status %d code %q, want 500 %q", st, er.Code, CodeExecutionFailed)
	}
	if c := srv.Counters(); c.Failed != 1 || c.Degraded != 0 {
		t.Fatalf("counters %+v, want one failed and none degraded", c)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	// Drive one good and one bad request so the counters are nonzero.
	getJSON(t, ts.URL+"/query?q=a/b", nil)
	getJSON(t, ts.URL+"/query?q=zzz", nil)
	var stats StatsResponse
	if st := getJSON(t, ts.URL+"/stats", &stats); st != http.StatusOK {
		t.Fatalf("/stats status %d, want 200", st)
	}
	if len(stats.Labels) != 3 || stats.MaxPathLength != 3 {
		t.Fatalf("stats metadata %v k=%d, want 3 labels and k=3", stats.Labels, stats.MaxPathLength)
	}
	if stats.Counters.Requests != 2 || stats.Counters.OK != 1 || stats.Counters.BadRequest != 1 {
		t.Fatalf("counters %+v, want requests=2 ok=1 bad_request=1", stats.Counters)
	}
	if stats.Counters.InFlight != 0 {
		t.Fatalf("in-flight %d after all responses, want 0", stats.Counters.InFlight)
	}
	if stats.Cache == nil || stats.Cache.Misses == 0 {
		t.Fatalf("cache stats %+v, want a populated persistent-cache snapshot", stats.Cache)
	}
}

// TestCountersPartitionRequests drives a mixed request stream
// concurrently and asserts the counters exactly partition the total —
// the accounting invariant the /stats endpoint is trusted for.
func TestCountersPartitionRequests(t *testing.T) {
	g, srv, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	labels := g.Labels()
	urls := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0:
			urls = append(urls, ts.URL+"/query?q="+labels[0]+"/"+labels[1])
		case 1:
			urls = append(urls, ts.URL+"/query?q="+labels[i%3]+"/"+labels[(i+1)%3]+"/"+labels[(i+2)%3])
		case 2:
			urls = append(urls, ts.URL+"/query?q=nosuchlabel")
		default:
			urls = append(urls, ts.URL+"/query")
		}
	}
	done := make(chan error, len(urls))
	for _, u := range urls {
		go func(u string) {
			resp, err := http.Get(u)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}(u)
	}
	for range urls {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c := srv.Counters()
	if c.Requests != int64(len(urls)) {
		t.Fatalf("requests %d, want %d", c.Requests, len(urls))
	}
	sum := c.OK + c.Degraded + c.BadRequest + c.Rejected + c.Overload + c.Timeout + c.Failed
	if sum != c.Requests {
		t.Fatalf("outcome counters sum to %d, want %d: %+v", sum, c.Requests, c)
	}
	if c.InFlight != 0 {
		t.Fatalf("in-flight %d after quiescence, want 0", c.InFlight)
	}
}

// TestServerShutdownLeavesNoGoroutines pins the acceptance criterion
// that serving leaves nothing behind: after a concurrent request burst
// and server close, the goroutine count returns to its baseline.
func TestServerShutdownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		g, _, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
		labels := g.Labels()
		done := make(chan struct{}, 32)
		for i := 0; i < 32; i++ {
			go func(i int) {
				defer func() { done <- struct{}{} }()
				q := fmt.Sprintf("%s/%s", labels[i%3], labels[(i+1)%3])
				resp, err := http.Get(ts.URL + "/query?q=" + q)
				if err == nil {
					resp.Body.Close()
				}
			}(i)
		}
		for i := 0; i < 32; i++ {
			<-done
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
			t.Fatalf("goroutine count %d did not return to baseline %d after shutdown",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
