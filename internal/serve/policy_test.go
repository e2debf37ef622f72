package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/pathsel"
)

var updatePolicyWire = flag.Bool("update", false, "rewrite testdata/policy_wire.golden from this tree's behaviour")

const policyWireGolden = "testdata/policy_wire.golden"

// latencyField matches every latency_ns of a body: the one figure of an
// answer that is not the policy's to decide.
var latencyField = regexp.MustCompile(`"latency_ns":[0-9]+`)

// TestPolicyWireGolden pins what every per-query policy answers on the
// wire, byte for byte, to testdata/policy_wire.golden: for each policy
// configuration, five patterns through /query and then one /batch of all
// five, each answer's status, Retry-After and body (latency_ns zeroed),
// and the Counters the configuration ends with. Every configuration runs
// behind the overload controller (MaxInFlight 4) on a stopped clock, so
// no tick moves the brownout tier; the brownout ones pre-seed tier 3,
// where every query with any join cost answers its estimate. -update
// rewrites the file when a change of served behaviour is intended.
func TestPolicyWireGolden(t *testing.T) {
	const maxCost = 300
	cases := []struct {
		name        string
		resultBytes int64          // the estimator's MaxResultBytes
		policy      OverloadConfig // the server's; every case adds MaxInFlight 4
		brownout    bool
	}{
		{"plain", 0, OverloadConfig{}, false},
		{"max-cost", 0, OverloadConfig{MaxPlanCost: maxCost}, false},
		{"max-cost degrade", 0, OverloadConfig{MaxPlanCost: maxCost, DegradeToEstimate: true}, false},
		{"timeout 1ns", 0, OverloadConfig{QueryTimeout: time.Nanosecond}, false},
		{"timeout 1ns degrade", 0, OverloadConfig{QueryTimeout: time.Nanosecond, DegradeToEstimate: true}, false},
		{"max-result-bytes 64", 64, OverloadConfig{}, false},
		{"max-result-bytes 64 degrade", 64, OverloadConfig{DegradeToEstimate: true}, false},
		{"max-result-bytes 2000", 2000, OverloadConfig{}, false},
		{"max-result-bytes 2000 degrade", 2000, OverloadConfig{DegradeToEstimate: true}, false},
		{"brownout tier 3", 0, OverloadConfig{}, true},
		{"brownout tier 3 max-cost degrade", 0, OverloadConfig{MaxPlanCost: maxCost, DegradeToEstimate: true}, true},
	}
	patterns := []string{"a", "a/b", "a/b/c", "a/(b|c)/a?", "b{2,3}"}
	batch, err := json.Marshal(BatchRequest{Queries: patterns})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, c := range cases {
		cfg := pathsel.Config{Workers: 1, CacheBytes: 1 << 20, MaxResultBytes: c.resultBytes}
		oc := c.policy
		oc.MaxInFlight, oc.Brownout = 4, c.brownout
		_, srv, _ := newOverloadServer(t, cfg, oc)
		srv.lim.mu.Lock()
		srv.lim.now = stoppedAt(srv.lim.lastTick)
		if c.brownout {
			srv.lim.tier, srv.lim.costThreshold = maxBrownoutTier, math.SmallestNonzeroFloat64
		}
		srv.lim.mu.Unlock()
		fmt.Fprintf(&got, "== %s\n", c.name)
		record := func(what string, req *http.Request) {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			fmt.Fprintf(&got, "%s\n%d retry-after=%q %s", what, w.Code, w.Header().Get("Retry-After"),
				latencyField.ReplaceAll(w.Body.Bytes(), []byte(`"latency_ns":0`)))
		}
		for _, p := range patterns {
			record("GET /query "+p, httptest.NewRequest(http.MethodGet, "/query?pattern="+url.QueryEscape(p), nil))
		}
		record("POST /batch", httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(batch)))
		counters, err := json.Marshal(srv.Counters())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "counters %s\n", counters)
	}

	if *updatePolicyWire {
		if err := os.WriteFile(policyWireGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(policyWireGolden)
	if err != nil {
		t.Fatalf("%v (cut it with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("served answers differ from %s (rewrite it with -update if intended)\nwant:\n%sgot:\n%s", policyWireGolden, want, got.Bytes())
	}
}
