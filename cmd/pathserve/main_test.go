package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestParseFlags pins the two rules parseFlags keeps beyond the flag
// package's own: a negative -timeout is refused, and the overload
// controller's flags need -max-inflight while the per-query policy flags
// (-timeout, -max-cost, -degrade) and the estimator's -max-result-bytes
// act without it.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		args []string
		err  string // a substring of the refusal; "" accepts
	}{
		{[]string{"-timeout", "-1s"}, "-timeout must be ≥ 0"},
		{[]string{"-timeout", "-1ns", "-max-inflight", "4"}, "-timeout must be ≥ 0"},
		{[]string{"-timeout", "0"}, ""},
		{[]string{"-timeout", "2s"}, ""},
		{[]string{"-max-cost", "1e-9"}, ""},
		{[]string{"-max-cost", "1e-9", "-degrade"}, ""},
		{[]string{"-timeout", "1ns", "-degrade"}, ""},
		{[]string{"-max-result-bytes", "64"}, ""},
		{[]string{"-min-inflight", "1"}, "need the controller enabled"},
		{[]string{"-latency-target", "5ms"}, "need the controller enabled"},
		{[]string{"-queue", "2"}, "need the controller enabled"},
		{[]string{"-queue-timeout", "5ms"}, "need the controller enabled"},
		{[]string{"-brownout"}, "need the controller enabled"},
		{[]string{"-brownout", "-max-inflight", "1", "-max-cost", "1e-9", "-degrade"}, ""},
	}
	for _, c := range cases {
		o, err := parseFlags(append([]string{"-dataset", "SNAP-FF"}, c.args...))
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v: refused with %v, want accepted", c.args, err)
		case c.err == "" && o == nil:
			t.Errorf("%v: accepted with no options", c.args)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v: %v, want a refusal containing %q", c.args, err, c.err)
		}
	}
}

// TestPolicyFlagsReachTheServer serves a two-label query from a small
// generated dataset under each policy flag and checks the answer the
// flag decides: -max-cost refuses it (429), and with -degrade answers its
// estimate (200, degraded by admission_denied).
func TestPolicyFlagsReachTheServer(t *testing.T) {
	cases := []struct {
		args   []string
		status int
		body   string
	}{
		{nil, http.StatusOK, `"plan":"`},
		{[]string{"-max-cost", "1e-9"}, http.StatusTooManyRequests, `"code":"admission_denied"`},
		{[]string{"-max-cost", "1e-9", "-degrade"}, http.StatusOK, `"degraded_by":"admission_denied"`},
		{[]string{"-timeout", "1ns"}, http.StatusGatewayTimeout, `"code":"deadline_exceeded"`},
	}
	for _, c := range cases {
		o, err := parseFlags(append([]string{"-dataset", "SNAP-FF", "-scale", "0.01"}, c.args...))
		if err != nil {
			t.Fatal(err)
		}
		srv, g, err := buildServer(o)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query?q="+strings.Join(g.Labels()[:2], "/"), nil))
		if w.Code != c.status || !strings.Contains(w.Body.String(), c.body) {
			t.Errorf("%v: %d %s, want %d with %s", c.args, w.Code, w.Body, c.status, c.body)
		}
	}
}
