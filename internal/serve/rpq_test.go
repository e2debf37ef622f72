package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/pathsel"
)

// postJSON posts a body and decodes the response, returning the status.
func postJSON(t *testing.T, u string, body, into any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", u, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("POST %s: decoding body: %v", u, err)
		}
	}
	return resp.StatusCode
}

// TestQueryPatternParam pins the v2 wire surface: the pattern parameter
// executes the full RPQ grammar and answers with the exact
// set-semantics selectivity.
func TestQueryPatternParam(t *testing.T) {
	g, _, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	for _, pattern := range []string{"a/(b|c)", "a?/b", "b{1,3}", "*/a"} {
		want, err := g.TruePatternSelectivity(pattern)
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResponse
		if st := getJSON(t, ts.URL+"/query?pattern="+url.QueryEscape(pattern), &qr); st != http.StatusOK {
			t.Fatalf("pattern %q: status %d, want 200", pattern, st)
		}
		if qr.Result != want {
			t.Fatalf("pattern %q: result %d, want %d", pattern, qr.Result, want)
		}
		if qr.Query != pattern {
			t.Fatalf("pattern %q echoed as %q", pattern, qr.Query)
		}
	}
}

// TestBatchEndpoint pins POST /batch: per-item results identical to
// per-query /query answers, the Batches counter, and the upfront
// compile check naming the offending query.
func TestBatchEndpoint(t *testing.T) {
	_, srv, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	queries := []string{"a/b", "a/(b|c)", "b{1,2}", "a/b"}

	want := make([]QueryResponse, len(queries))
	for i, q := range queries {
		if st := getJSON(t, ts.URL+"/query?pattern="+url.QueryEscape(q), &want[i]); st != http.StatusOK {
			t.Fatalf("reference query %q: status %d", q, st)
		}
	}

	var br BatchResponse
	if st := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: queries}, &br); st != http.StatusOK {
		t.Fatalf("/batch status %d, want 200", st)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("/batch returned %d results, want %d", len(br.Results), len(queries))
	}
	for i, item := range br.Results {
		if item.Error != "" {
			t.Fatalf("batch item %d: unexpected error %q", i, item.Error)
		}
		if item.Query != queries[i] {
			t.Fatalf("batch item %d echoes %q, want %q", i, item.Query, queries[i])
		}
		if item.Result != want[i].Result {
			t.Fatalf("batch item %d (%q): result %d, want %d", i, queries[i], item.Result, want[i].Result)
		}
	}
	if c := srv.Counters(); c.Batches != 1 {
		t.Fatalf("Batches counter = %d, want 1", c.Batches)
	}

	// A malformed workload fails fast, naming the first bad query.
	var er ErrorResponse
	if st := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: []string{"a", "b{3,1}"}}, &er); st != http.StatusBadRequest {
		t.Fatalf("bad batch status %d, want 400", st)
	}
	if er.Code != CodeBadPattern || !strings.Contains(er.Error, "query 1") {
		t.Fatalf("bad batch error %+v, want bad_pattern naming query 1", er)
	}

	// Degenerate requests.
	if st := postJSON(t, ts.URL+"/batch", BatchRequest{}, &er); st != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", st)
	}
	resp, err := http.Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch status %d, want 405", resp.StatusCode)
	}
	over := BatchRequest{Queries: make([]string, maxBatchQueries+1)}
	for i := range over.Queries {
		over.Queries[i] = "a"
	}
	if st := postJSON(t, ts.URL+"/batch", over, &er); st != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", st)
	}
}

// TestBatchMaterializesSharedSegmentsOnce pins BatchRequest's promise on
// a cold cache: the queries of one /batch share keyed segments (a/b, b/c,
// a/b/c twice), and each is built and published once — the items' misses
// are the cache's puts and its entries — and every item's hits, misses
// and work are the same on every fresh server, because the queries run in
// input order.
func TestBatchMaterializesSharedSegmentsOnce(t *testing.T) {
	queries := []string{"a/b/c", "a/b/a", "b/c/a", "a/b/c", "(a|b)/b/c"}
	var first []BatchItem
	for run := range 20 {
		g, srv, ts := newTestServer(t, pathsel.Config{Workers: 1, CacheBytes: pathsel.DefaultCacheBytes})
		var br BatchResponse
		if st := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: queries}, &br); st != http.StatusOK {
			t.Fatalf("run %d: /batch status %d", run, st)
		}
		misses := 0
		for i, item := range br.Results {
			want, err := g.TruePatternSelectivity(queries[i])
			if err != nil {
				t.Fatal(err)
			}
			if item.Error != "" || item.Result != want {
				t.Fatalf("run %d, item %d (%s): %+v, want result %d", run, i, queries[i], item, want)
			}
			misses += item.CacheMisses
		}
		cs, _ := srv.est.CacheStats()
		if uint64(misses) != cs.Puts || cs.Puts != uint64(cs.Entries) {
			t.Fatalf("run %d: the items miss %d times, the cache put %d and holds %d entries", run, misses, cs.Puts, cs.Entries)
		}
		if run == 0 {
			first = br.Results
			continue
		}
		for i, item := range br.Results {
			if a := first[i]; item.CacheHits != a.CacheHits || item.CacheMisses != a.CacheMisses || item.Work != a.Work {
				t.Fatalf("run %d, item %d (%s): hits/misses/work %d/%d/%d, run 0 read %d/%d/%d", run, i, queries[i],
					item.CacheHits, item.CacheMisses, item.Work, a.CacheHits, a.CacheMisses, a.Work)
			}
		}
	}
}

// TestRunLoadBatchMode pins the harness's batch driving: an RPQ pool
// replayed through POST /batch accounts every query and reports the
// batch count.
func TestRunLoadBatchMode(t *testing.T) {
	g, _, ts := newTestServer(t, pathsel.Config{CacheBytes: pathsel.DefaultCacheBytes})
	_ = g
	queries := []string{"a/b", "a/(b|c)", "b{1,2}", "a?/c", "a/b", "c"}
	trace := make([]TimedQuery, 24)
	for i := range trace {
		trace[i] = TimedQuery{Query: queries[i%len(queries)]}
	}
	rep, err := RunLoad(ts.URL, trace, LoadOptions{Concurrency: 2, Batch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != int64(len(trace)) {
		t.Fatalf("ok=%d of %d queries (report %+v)", rep.OK, len(trace), rep)
	}
	if rep.Batches != 5 { // ceil(24/5)
		t.Fatalf("batches=%d, want 5", rep.Batches)
	}
	if rep.CacheHits == 0 {
		t.Fatalf("repeated workload over a persistent cache reported no hits: %+v", rep)
	}
}
