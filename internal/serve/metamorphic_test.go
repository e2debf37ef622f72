package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/workload"
	"repro/pathsel"
)

// TestConcurrentServeMatchesPermutedExecution checks a relation the
// serving layer must keep, without a reference, on every Table 3
// generator at scale 0.1: under a seeded random permutation of the
// vertices, what a cached, bushy-planning server answers for a sample of
// concrete paths and RPQs over the renamed graph πG is the count an
// uncached, linear in-process Expr.ExecuteCtx gives on G — through /query,
// and through /batch inline (workers 1) and fanned out (workers 4), each
// item in its input slot. Every item's cache hits and misses also add up
// to the cache's own counters.
//
// A /batch that answers its items out of order, or a fan-out that drops
// one, breaks it: the item echoes another query, or none.
func TestConcurrentServeMatchesPermutedExecution(t *testing.T) {
	atLeastProcs(t, 4)
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
				MaxPathLength: k, Buckets: 64, Workers: 2, BushyPlans: true, CacheBytes: pathsel.DefaultCacheBytes,
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

			var hits, misses int
			check := func(via string, j int, item BatchItem) {
				t.Helper()
				if item.Error != "" || item.Query != queries[j] || item.Result != want[j] {
					t.Fatalf("%s item %d: %q answers %d (%s), want %q = %d", via, j, item.Query, item.Result, item.Error, queries[j], want[j])
				}
				hits, misses = hits+item.CacheHits, misses+item.CacheMisses
			}
			for j, q := range queries {
				var item BatchItem
				if st := getJSON(t, ts.URL+"/query?pattern="+url.QueryEscape(q), &item); st != http.StatusOK {
					t.Fatalf("/query %q: status %d (%s)", q, st, item.Error)
				}
				check("/query", j, item)
			}
			for _, workers := range []int{1, 4} {
				var br BatchResponse
				if st := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: queries, Workers: workers}, &br); st != http.StatusOK {
					t.Fatalf("/batch workers %d: status %d", workers, st)
				}
				if len(br.Results) != len(queries) {
					t.Fatalf("/batch workers %d: %d items for %d queries", workers, len(br.Results), len(queries))
				}
				for j, item := range br.Results {
					check(fmt.Sprintf("/batch workers %d", workers), j, item)
				}
			}
			if cs, _ := est.CacheStats(); uint64(hits) != cs.Hits || uint64(misses) != cs.Misses {
				t.Fatalf("the items count %d hits and %d misses, the cache %d and %d", hits, misses, cs.Hits, cs.Misses)
			}
		})
	}
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
