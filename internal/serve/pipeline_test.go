package serve

// Pipeline suite: the properties of having one request pipeline — /query
// and /batch answer the same pattern with the same item and the same
// counters, the wire table reads the same from both ends, a 400 never
// touches admission, the /batch body is the server's to bound, and the
// load client retries a shed batch like a shed query.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/pathsel"
)

// outcomeCounters is the per-answer part of a Counters snapshot — what
// must move identically whichever endpoint carried the query.
func outcomeCounters(c Counters) [9]int64 {
	return [9]int64{c.OK, c.Degraded, c.BadRequest, c.Rejected, c.Overload,
		c.Timeout, c.Failed, c.Shed, c.BrownoutDegraded}
}

// saturate pre-seeds the limiter so the next admission is shed: every
// slot busy, the queue at its limit.
func saturate(srv *Server) {
	srv.lim.mu.Lock()
	defer srv.lim.mu.Unlock()
	srv.lim.inFlight = srv.lim.limit
	for len(srv.lim.queue) < srv.lim.cfg.QueueLimit {
		srv.lim.queue = append(srv.lim.queue, &waiter{ready: make(chan struct{})})
	}
}

// stoppedAt is a limiter clock held still at t. Set at the limiter's
// lastTick, no brownout tick ever comes due, so nothing recuts the tier
// or its threshold, and every service time reads zero.
func stoppedAt(t time.Time) func() time.Time { return func() time.Time { return t } }

// TestQueryBatchParity sends each outcome class through /query and as
// the items of one /batch and pins the two to the same answer: identical
// item bodies (modulo latency_ns; a failed /query's ErrorResponse carries
// only the item's error and code, and a refused batch names the offending
// query) and identical counter movement per item — the batch extension of
// TestCountersPartitionRequests.
func TestQueryBatchParity(t *testing.T) {
	cases := []struct {
		name     string
		policy   OverloadConfig // the per-query policy; every case runs the controller with brownout on
		brownout bool
		pattern  string
		status   int // /query's; a 400 refuses the whole batch too
	}{
		{"ok", OverloadConfig{}, false, "a/(b|c)", http.StatusOK},
		{"degraded by admission", OverloadConfig{MaxPlanCost: 1e-12, DegradeToEstimate: true}, false, "a/b", http.StatusOK},
		{"brownout", OverloadConfig{}, true, "a/b", http.StatusOK},
		{"admission_denied", OverloadConfig{MaxPlanCost: 1e-12}, false, "a/b", http.StatusTooManyRequests},
		{"deadline", OverloadConfig{QueryTimeout: time.Nanosecond}, false, "a/b/c", http.StatusGatewayTimeout},
		{"bad_pattern", OverloadConfig{}, false, "b{3,1}", http.StatusBadRequest},
		{"unknown label", OverloadConfig{}, false, "a/zzz", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			oc := c.policy
			oc.MaxInFlight, oc.Brownout = 2, true
			_, srv, ts := newOverloadServer(t, pathsel.Config{}, oc)
			// Every case stops the clock, so no tick moves the tier mid-case.
			srv.lim.mu.Lock()
			srv.lim.now = stoppedAt(srv.lim.lastTick)
			if c.brownout {
				srv.lim.tier, srv.lim.costThreshold = maxBrownoutTier, 1e-12
			}
			srv.lim.mu.Unlock()
			before := outcomeCounters(srv.Counters())
			var single BatchItem // a superset of both bodies /query answers with
			if st := getJSON(t, ts.URL+"/query?pattern="+url.QueryEscape(c.pattern), &single); st != c.status {
				t.Fatalf("/query status %d, want %d", st, c.status)
			}
			afterQuery := outcomeCounters(srv.Counters())

			const n = 3
			var ans answer
			st := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: []string{c.pattern, c.pattern, c.pattern}}, &ans)
			afterBatch := outcomeCounters(srv.Counters())
			items, perItem := ans.Results, int64(n)
			if c.status == http.StatusBadRequest {
				// Refused whole, as one item, before anything executed.
				if st != http.StatusBadRequest {
					t.Fatalf("/batch status %d, want 400", st)
				}
				ans.Error = strings.TrimPrefix(ans.Error, "query 0: ")
				items, perItem = []BatchItem{ans.BatchItem}, 1
			} else if st != http.StatusOK || len(items) != n {
				t.Fatalf("/batch status %d with %d items, want 200 with %d", st, len(items), n)
			}
			for i, item := range items {
				single.LatencyNs, item.LatencyNs = 0, 0
				if single.Error != "" {
					item.QueryResponse = QueryResponse{}
				}
				if item != single {
					t.Fatalf("batch item %d differs from /query's answer:\n batch  %+v\n query  %+v", i, item, single)
				}
			}
			for i := range before {
				dq, db := afterQuery[i]-before[i], afterBatch[i]-afterQuery[i]
				if db != perItem*dq {
					t.Fatalf("counter %d moved %d for /query but %d for %d batch items (query %v, batch %v)",
						i, dq, db, perItem, afterQuery, afterBatch)
				}
			}
			var moved int64
			for i, v := range afterQuery[:8] { // BrownoutDegraded is a part of Degraded, not a slot
				moved += v - before[i]
			}
			if moved != 1 {
				t.Fatalf("/query moved %d outcome counters, want exactly 1: %v → %v", moved, before, afterQuery)
			}
		})
	}
}

// TestWireTableRoundTrips iterates the one wire table and pins that it
// reads the same in every direction it is consulted: cause → row (the
// server), code → row → status (the status line), code or status →
// counter (the load client), with every Code* constant in exactly one
// row.
func TestWireTableRoundTrips(t *testing.T) {
	codes := map[string]bool{
		CodeBadRequest: false, CodeBadPattern: false, CodeAdmissionDenied: false,
		CodeBudgetExceeded: false, CodeDeadline: false, CodeCancelled: false,
		CodeExecutionFailed: false, CodeOverloaded: false, CodeDraining: false,
		CodeBrownout: false,
	}
	for i := range wireTable {
		row := &wireTable[i]
		seen, known := codes[row.code]
		if !known || seen {
			t.Fatalf("row %d: code %q is not a Code* constant, or appears twice", i, row.code)
		}
		codes[row.code] = true
		if got := wireByCode(row.code); got != row {
			t.Fatalf("row %d: wireByCode(%q) = %+v", i, row.code, got)
		}
		cause := row.err
		if cause == nil {
			if i != len(wireTable)-1 {
				t.Fatalf("row %d: the sentinel-less fallback must come last", i)
			}
			cause = errors.New("some parse error")
		}
		if got := wireOf(fmt.Errorf("wrapped: %w", cause)); got != row {
			t.Fatalf("row %d: wireOf(wrapped %v) = %+v", i, cause, got)
		}
		if row.status == http.StatusOK {
			continue // a DegradedBy cause, never an error answer
		}
		// Server: the cause is accounted in the row's counter alone and
		// rendered with its code, which names its status.
		_, srv, _ := newTestServer(t, pathsel.Config{})
		item := srv.account("", pathsel.ExecStats{}, nil, cause)
		var want [numOutcomes]int64
		want[row.counter] = 1
		for o := range want {
			if got := srv.outcomes[o].Load(); got != want[o] {
				t.Fatalf("row %d (%s): outcome %d counted %d, want %d", i, row.code, o, got, want[o])
			}
		}
		if item.Code != row.code || item.Error == "" {
			t.Fatalf("row %d: accounted as %+v, want code %q", i, item, row.code)
		}
		rec := httptest.NewRecorder()
		writeFailure(rec, item, 0)
		if rec.Code != row.status {
			t.Fatalf("row %d (%s): answered %d, want %d", i, row.code, rec.Code, row.status)
		}
		// Client: the same counter from the code, whatever carried it —
		// a /query status line or an item inside a 200 batch.
		for _, status := range []int{row.status, http.StatusOK} {
			if got := classify(status, item); got != row.counter {
				t.Fatalf("row %d (%s): client classifies status %d as outcome %d, want %d",
					i, row.code, status, got, row.counter)
			}
		}
		// A body that did not decode falls back to the status, which must
		// land in a counter some row with that status owns.
		fallback, owned := classify(row.status, BatchItem{}), false
		for _, r := range wireTable {
			owned = owned || (r.status == row.status && r.counter == fallback)
		}
		if !owned {
			t.Fatalf("row %d: bare status %d classified as outcome %d, which no row with that status uses",
				i, row.status, fallback)
		}
	}
	for code, seen := range codes {
		if !seen {
			t.Fatalf("code %q has no wire table row", code)
		}
	}
	shed := &shedError{retryAfter: 7 * time.Millisecond, reason: "test"}
	if got := wireOf(shed).code; got != CodeOverloaded {
		t.Fatalf("a shed answers %q, want %q", got, CodeOverloaded)
	}
	if retryHint(shed) != 7*time.Millisecond || retryHint(errDraining) <= 0 || retryHint(pathsel.ErrAdmissionDenied) != 0 {
		t.Fatal("retry hints: want the shed's own, a positive one for draining, none for a cost rejection")
	}
}

// TestMalformedQueryNeverTouchesAdmission pins compile-before-admit on
// /query: against a saturated limiter a malformed pattern still answers
// its 400 — it is not shed — and an unsaturated one neither takes a slot
// nor trains the service-time EWMA.
func TestMalformedQueryNeverTouchesAdmission(t *testing.T) {
	_, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{
		MaxInFlight: 1, QueueLimit: 1, QueueTimeout: 10 * time.Millisecond,
	})
	check := func(when string) {
		t.Helper()
		for _, q := range []string{"zzz", "b%7B3%2C1%7D"} {
			var er ErrorResponse
			if st := getJSON(t, ts.URL+"/query?q="+q, &er); st != http.StatusBadRequest {
				t.Fatalf("%s: malformed query %q answered %d (%s), want 400", when, q, st, er.Code)
			}
		}
		if c := srv.Counters(); c.Shed != 0 || c.BadRequest == 0 {
			t.Fatalf("%s: counters %+v, want bad requests and no shed", when, c)
		}
		if ov := srv.lim.stats(); ov.SvcEwmaNs != 0 || ov.PeakInFlight != 0 {
			t.Fatalf("%s: a 400 reached the limiter: %+v", when, ov)
		}
	}
	check("idle")
	saturate(srv)
	srv.lim.mu.Lock()
	srv.lim.peak = 0 // saturate faked the occupancy; nothing was admitted
	srv.lim.mu.Unlock()
	check("saturated")
}

// TestBatchBodyBounded pins that /batch reads a bounded body: one past
// maxBatchBody — here a small workload padded with a field the decoder
// would skip — is a 400 counted once, as is a truncated one, and neither
// counts as a batch.
func TestBatchBodyBounded(t *testing.T) {
	_, srv, ts := newTestServer(t, pathsel.Config{})
	post := func(body string) (int, ErrorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("decoding /batch answer: %v", err)
		}
		return resp.StatusCode, er
	}
	oversize := `{"pad":"` + strings.Repeat("x", maxBatchBody) + `","queries":["a/b"]}`
	for i, body := range []string{oversize, `{"queries":["a/b"`} {
		if st, er := post(body); st != http.StatusBadRequest || er.Code != CodeBadRequest {
			t.Fatalf("body %d: status %d code %q, want 400 %q", i, st, er.Code, CodeBadRequest)
		}
		if c := srv.Counters(); c.BadRequest != int64(i+1) || c.OK != 0 || c.Batches != 0 {
			t.Fatalf("body %d: counters %+v, want %d bad requests and nothing executed", i, c, i+1)
		}
	}
	// The bound is on bytes, not on a well-formed workload near it.
	var qs []string
	for len(qs) < maxBatchQueries {
		qs = append(qs, "a/b")
	}
	raw, err := json.Marshal(BatchRequest{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a full %d-query batch answered %d, want 200", maxBatchQueries, resp.StatusCode)
	}
}

// TestRunLoadRetriesShedBatch pins that the load client's one retry loop
// serves batch mode: against a saturated limiter every batch is shed with
// a hint, re-issued Retry.Max times, and finally charged to each member.
func TestRunLoadRetriesShedBatch(t *testing.T) {
	_, srv, ts := newOverloadServer(t, pathsel.Config{}, OverloadConfig{
		MaxInFlight: 1, QueueLimit: 1, QueueTimeout: 10 * time.Millisecond,
	})
	saturate(srv)
	trace := make([]TimedQuery, 6)
	for i := range trace {
		trace[i] = TimedQuery{Query: "a/b"}
	}
	rep, err := RunLoad(ts.URL, trace, LoadOptions{
		Concurrency: 2, Batch: 3,
		Retry: RetryPolicy{Max: 2, Base: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	loadPartition(t, rep)
	if rep.Batches != 2 || rep.Retries != 4 {
		t.Fatalf("batches %d retries %d, want 2 batches re-issued twice each: %+v", rep.Batches, rep.Retries, rep)
	}
	if rep.Shed != int64(len(trace)) || rep.TransportErrors != 0 {
		t.Fatalf("shed %d of %d members (transport errors %d): %+v", rep.Shed, len(trace), rep.TransportErrors, rep)
	}
	if c := srv.Counters(); c.Shed != 6 { // 2 batches × (1 issue + 2 re-issues), one shed each
		t.Fatalf("server counted %d sheds, want 6: %+v", c.Shed, c)
	}
}
