package repro_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strconv"
	"testing"

	"repro/internal/serve"
	"repro/pathsel"
)

var updateAllocs = flag.Bool("update", false, "rewrite testdata/allocs.golden.csv from this tree's behaviour")

const allocsGolden = "testdata/allocs.golden.csv"

// raceOn is set under -race (race_test.go).
var raceOn bool

// allocsRuns is AllocsPerRun's count; with the collector off the count is
// exact at any run count, so this only bounds the test's time.
const allocsRuns = 200

// allocsEstimator builds the served path's fixture: internal/serve's test
// graph (40 vertices, labels a, b and c, 300 seeded random edges), k = 3,
// β = 16, one worker, with the default relation cache or none.
func allocsEstimator(t *testing.T, cached bool) *pathsel.Estimator {
	t.Helper()
	names := []string{"a", "b", "c"}
	g := pathsel.NewGraph(40, names)
	rng := rand.New(rand.NewSource(11))
	for range 300 {
		if _, err := g.AddEdge(rng.Intn(40), names[rng.Intn(3)], rng.Intn(40)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := pathsel.Config{MaxPathLength: 3, Buckets: 16, Workers: 1}
	if cached {
		cfg.CacheBytes = pathsel.DefaultCacheBytes
	}
	est, err := pathsel.Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestAllocsGolden pins the allocations of one served query, layer by
// layer, to testdata/allocs.golden.csv: Compile, Expr.ExecuteCtx and a
// /query through Server.ServeHTTP for a concrete path and an RPQ, and one
// /batch of both, each with no cache and on a warm one. A change that
// adds or removes an allocation on the served path moves a row; -update
// rewrites the file when that is intended.
//
// The collector is off while it counts: a sync.Pool a collection empties
// would otherwise refill at a random run and move a count.
func TestAllocsGolden(t *testing.T) {
	if raceOn {
		t.Skip("the race detector's own allocations move every count")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	patterns := []string{"a/b/c", "a/(b|c)/a?"}
	rows := [][]string{{"cell", "cache", "allocs"}}
	for _, cached := range []bool{false, true} {
		cache := "none"
		if cached {
			cache = "warm"
		}
		est := allocsEstimator(t, cached)
		srv := serve.New(est)
		count := func(cell string, f func()) {
			f() // warms the cache, and any lazily built state
			rows = append(rows, []string{cell, cache, strconv.FormatFloat(testing.AllocsPerRun(allocsRuns, f), 'f', -1, 64)})
		}
		serveOK := func(req func() *http.Request) func() {
			return func() {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req())
				if w.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", req().URL, w.Code, w.Body)
				}
			}
		}
		for _, p := range patterns {
			count("Compile "+p, func() {
				if _, err := est.Compile(p); err != nil {
					t.Fatal(err)
				}
			})
			x, err := est.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			count("ExecuteCtx "+p, func() {
				if _, err := x.ExecuteCtx(context.Background()); err != nil {
					t.Fatal(err)
				}
			})
			// The pattern goes unescaped, so the handler's query parse
			// allocates no unescaped copy of it.
			query := httptest.NewRequest(http.MethodGet, "/query?pattern="+p, nil)
			count("ServeHTTP /query "+p, serveOK(func() *http.Request { return query }))
		}
		body := []byte(`{"queries":["a/b/c","a/(b|c)/a?"]}`)
		batch := httptest.NewRequest(http.MethodPost, "/batch", nil)
		count("ServeHTTP /batch a/b/c a/(b|c)/a?", serveOK(func() *http.Request {
			batch.Body = io.NopCloser(bytes.NewReader(body))
			return batch
		}))
	}

	var got bytes.Buffer
	w := csv.NewWriter(&got)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	if *updateAllocs {
		if err := os.WriteFile(allocsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(allocsGolden)
	if err != nil {
		t.Fatalf("%v (cut it with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("allocation counts differ from %s (rewrite it with -update if intended)\nwant:\n%sgot:\n%s", allocsGolden, want, got.Bytes())
	}
}
