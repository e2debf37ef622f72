package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/workload"
	"repro/pathsel"
)

// TestConcurrentServeMatchesPermutedExecution checks a relation the
// serving layer must keep, without a reference, on every Table 3
// generator at scale 0.1: under a seeded random permutation of the
// vertices, what a cached server, planning against its cache, answers for
// a sample of concrete paths and RPQs over the renamed graph πG is the
// count an uncached in-process Expr.ExecuteCtx gives on G — through /query
// and through /batch, each item in its input slot, while three clients
// share the server's cache at once: one sends every query to /query, two
// send the whole sample as one /batch each. Every item's cache hits and
// misses also add up to the cache's own counters.
//
// A /batch that answers its items out of order, or drops one, breaks it:
// the item echoes another query, or none.
func TestConcurrentServeMatchesPermutedExecution(t *testing.T) {
	const k = 3
	for i, spec := range dataset.Table3() {
		t.Run(spec.Name, func(t *testing.T) {
			g := dataset.Generate(spec, 0.1, int64(60+i))
			rng := rand.New(rand.NewSource(int64(70 + i)))
			ref, err := pathsel.Build(renamed(t, g, nil), pathsel.Config{MaxPathLength: k, Buckets: 64})
			if err != nil {
				t.Fatal(err)
			}
			est, err := pathsel.Build(renamed(t, g, rng.Perm(g.NumVertices())), pathsel.Config{
				MaxPathLength: k, Buckets: 64, Workers: 2, CacheBytes: pathsel.DefaultCacheBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(est))
			defer ts.Close()

			concrete, err := workload.QueryPool(ref.Labels(), k, 8, int64(80+i))
			if err != nil {
				t.Fatal(err)
			}
			rpqs, err := workload.RPQPool(ref.Labels(), k, 8, int64(90+i))
			if err != nil {
				t.Fatal(err)
			}
			queries := append(concrete, rpqs...)
			want := make([]int64, len(queries))
			for j, q := range queries {
				x, err := ref.Compile(q)
				if err != nil {
					t.Fatal(err)
				}
				st, err := x.ExecuteCtx(context.Background())
				if err != nil {
					t.Fatalf("%s on G: %v", q, err)
				}
				want[j] = st.Result
			}

			viaQuery, viaBatch := make([]BatchItem, len(queries)), make([]BatchResponse, 2)
			body, err := json.Marshal(BatchRequest{Queries: queries})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			client := func(send func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := send(); err != nil {
						t.Error(err)
					}
				}()
			}
			client(func() error {
				for j, q := range queries {
					if err := fetch200(ts.URL+"/query?pattern="+url.QueryEscape(q), nil, &viaQuery[j]); err != nil {
						return err
					}
				}
				return nil
			})
			for b := range viaBatch {
				client(func() error {
					return fetch200(ts.URL+"/batch", body, &viaBatch[b])
				})
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			var hits, misses int
			check := func(via string, j int, item BatchItem) {
				t.Helper()
				if item.Error != "" || item.Query != queries[j] || item.Result != want[j] {
					t.Fatalf("%s item %d: %q answers %d (%s), want %q = %d", via, j, item.Query, item.Result, item.Error, queries[j], want[j])
				}
				hits, misses = hits+item.CacheHits, misses+item.CacheMisses
			}
			for j, item := range viaQuery {
				check("/query", j, item)
			}
			for b, br := range viaBatch {
				if len(br.Results) != len(queries) {
					t.Fatalf("/batch %d: %d items for %d queries", b, len(br.Results), len(queries))
				}
				for j, item := range br.Results {
					check(fmt.Sprintf("/batch %d", b), j, item)
				}
			}
			if cs, _ := est.CacheStats(); uint64(hits) != cs.Hits || uint64(misses) != cs.Misses {
				t.Fatalf("the items count %d hits and %d misses, the cache %d and %d", hits, misses, cs.Hits, cs.Misses)
			}
		})
	}
}

// fetch200 GETs u, or POSTs body to it when body is non-nil, and decodes
// the 200 it must answer into into. It returns its failure rather than
// failing the test, so a client goroutine other than the test's own can
// call it.
func fetch200(u string, body []byte, into any) error {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(u)
	} else {
		resp, err = http.Post(u, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// renamed is g as a pathsel.Graph with vertex v renamed perm[v] (nil: g
// itself), every label keeping its name.
func renamed(t *testing.T, g *graph.Graph, perm []int) *pathsel.Graph {
	t.Helper()
	names := make([]string, g.NumLabels())
	for l := range names {
		names[l] = g.LabelName(l)
	}
	out := pathsel.NewGraph(g.NumVertices(), names)
	for _, e := range g.Edges() {
		src, dst := e.Src, e.Dst
		if perm != nil {
			src, dst = perm[src], perm[dst]
		}
		if _, err := out.AddEdge(src, names[e.Label], dst); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
