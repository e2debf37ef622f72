package pathsel

import (
	"context"
	"math/rand"
	"testing"
)

// batchTestGraph builds a random labeled graph through the public facade.
func batchTestGraph(t testing.TB, seed int64, vertices, labels, edges int) *Graph {
	names := make([]string, labels)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	g := NewGraph(vertices, names)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edges; i++ {
		if _, err := g.AddEdge(rng.Intn(vertices), names[rng.Intn(labels)], rng.Intn(vertices)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// batchWorkload samples a workload with repeated queries and shared
// segments — the regime the cache exists for.
func batchWorkload(rng *rand.Rand, labels []string, count, maxLen int) []string {
	pool := make([]string, 0, 8)
	for len(pool) < 8 {
		k := 2 + rng.Intn(maxLen-1)
		q := labels[rng.Intn(len(labels))]
		for i := 1; i < k; i++ {
			q += "/" + labels[rng.Intn(len(labels))]
		}
		pool = append(pool, q)
	}
	out := make([]string, count)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// TestExecuteBatchMatchesExecuteQuery pins a workload's per-query results,
// executed concurrently on one cached estimator, bit-identical to the
// uncached per-query API at every worker count 1–8, regardless of cache
// hit/miss interleaving. Run with -race in CI, this is the determinism
// property test of concurrent execution.
func TestExecuteBatchMatchesExecuteQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		g := batchTestGraph(t, int64(trial), 20+rng.Intn(60), 2+rng.Intn(3), 150+rng.Intn(200))
		ref, err := Build(g, Config{MaxPathLength: 3, Buckets: 8})
		if err != nil {
			t.Fatal(err)
		}
		est, err := Build(g, Config{MaxPathLength: 3, Buckets: 8, CacheBytes: DefaultCacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		queries := batchWorkload(rng, g.Labels(), 30, 3)
		// Reference: the per-query API on an estimator without a cache.
		want := make([]int64, len(queries))
		for i, q := range queries {
			st, err := executeQuery(ref, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = st.Result
		}
		for workers := 1; workers <= 8; workers++ {
			res, err := executeBatch(context.Background(), est, queries, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != len(queries) {
				t.Fatalf("trial %d workers %d: %d results for %d queries",
					trial, workers, len(res), len(queries))
			}
			for i, r := range res {
				if r.Query != queries[i] {
					t.Fatalf("trial %d workers %d: result %d answers %q, want %q",
						trial, workers, i, r.Query, queries[i])
				}
				if r.Result != want[i] {
					t.Fatalf("trial %d workers %d: query %q result %d, want %d",
						trial, workers, r.Query, r.Result, want[i])
				}
			}
			if cs, ok := est.CacheStats(); !ok || cs.Hits == 0 {
				t.Fatalf("trial %d workers %d: repeated workload never hit the cache (stats %+v)",
					trial, workers, cs)
			}
		}
	}
}

// TestBatchCacheCountersAddUp pins that the per-query cache counters
// account for every cache probe: over a seeded batch of concrete paths and
// patterns on one cached estimator, run concurrently, the
// queries' CacheHits and CacheMisses sum to the cache's own Hits and
// Misses — each segment is probed once, and every miss is published.
// Above one worker the queries' ExecuteCtx calls run concurrently.
func TestBatchCacheCountersAddUp(t *testing.T) {
	g := batchTestGraph(t, 17, 60, 3, 400)
	queries := batchWorkload(rand.New(rand.NewSource(3)), g.Labels(), 40, 4)
	queries = append(queries, "a/(b|c)/a{1,2}/b/c", "(a|b)/c?/a", "a/(b|c)/a{1,2}/b/c", "b{2,3}/a")
	for _, workers := range []int{1, 4} {
		est, err := Build(g, Config{MaxPathLength: 6, Buckets: 8, CacheBytes: DefaultCacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		// Two batches, cold then warm: the cache's counters are cumulative,
		// and so are the sums.
		var hits, misses uint64
		for range 2 {
			res, err := executeBatch(context.Background(), est, queries, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.Err != nil {
					t.Fatalf("%q: %v", r.Query, r.Err)
				}
				hits, misses = hits+uint64(r.CacheHits), misses+uint64(r.CacheMisses)
			}
			cs, _ := est.CacheStats()
			if hits != cs.Hits || misses != cs.Misses {
				t.Fatalf("%d workers: the queries count %d hits and %d misses, the cache %d and %d",
					workers, hits, misses, cs.Hits, cs.Misses)
			}
			if n := est.pool.InUse(); n != 0 {
				t.Fatalf("%d workers: pool has %d relations checked out after the batch", workers, n)
			}
		}
	}
}

// TestExecuteBatchCacheModes covers the two cache regimes a workload can
// run in — the estimator has no cache, or it has a persistent one — a
// workload never owns a cache of its own.
func TestExecuteBatchCacheModes(t *testing.T) {
	g := batchTestGraph(t, 5, 40, 3, 200)
	queries := []string{"a/b", "b/c", "a/b", "a/b/c", "a/b/c"}

	// No Config.CacheBytes: no cache stats, still correct.
	plain, err := Build(g, Config{MaxPathLength: 3, Buckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := executeBatch(context.Background(), plain, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cs, ok := plain.CacheStats(); ok || cs != (CacheStats{}) {
		t.Fatalf("uncached estimator reported cache stats: %+v", cs)
	}
	for _, r := range cold {
		if r.CacheHits != 0 || r.CacheMisses != 0 {
			t.Fatalf("uncached query reported cache traffic: %+v", r.ExecStats)
		}
	}

	// Persistent estimator cache: repeats hit within the first batch,
	// and a second batch starts warm.
	persistent, err := Build(g, Config{MaxPathLength: 3, Buckets: 8, CacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := persistent.CacheStats(); !ok {
		t.Fatal("Config.CacheBytes did not create a persistent cache")
	}
	first, err := executeBatch(context.Background(), persistent, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst, _ := persistent.CacheStats()
	if afterFirst.Hits == 0 {
		t.Fatalf("first batch on an empty cache saw no hits from its repeats: %+v", afterFirst)
	}
	for i := range queries {
		if first[i].Result != cold[i].Result {
			t.Fatalf("query %d: cached %d != uncached %d", i,
				first[i].Result, cold[i].Result)
		}
	}
	second, err := executeBatch(context.Background(), persistent, queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if afterSecond, _ := persistent.CacheStats(); afterSecond.Hits <= afterFirst.Hits {
		t.Fatalf("persistent cache did not carry across batches: %d then %d hits",
			afterFirst.Hits, afterSecond.Hits)
	}
	var hits int
	for i, r := range second {
		hits += r.CacheHits
		if r.Result != cold[i].Result {
			t.Fatalf("warm persistent query %d diverged", i)
		}
	}
	if hits != len(queries) {
		t.Fatalf("fully warm batch: %d whole-query hits, want %d", hits, len(queries))
	}

	// ExecuteQuery shares the persistent cache too.
	st, err := executeQuery(persistent, "a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.Work != 0 {
		t.Fatalf("ExecuteQuery did not take the warm fast path: %+v", st)
	}
}

// FuzzBatchCacheEquivalence is the workload determinism fuzz target: on
// an arbitrary small graph and a workload of repeated concrete paths and
// regular path queries, concurrent ExecuteCtx calls — any worker count,
// shared cache — must report exactly the exact selectivities, which the
// uncached ExecuteQuery loop reports too, and a second (warm) pass must agree
// again; over a roomy cache, where a repeat is a whole-query hit, and over
// one half the size of what the roomy one ended up holding, where entries
// are evicted between a query and its repeat and executions resume from
// whatever prefix is left.
func FuzzBatchCacheEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(2), uint16(80), uint8(10), uint8(3))
	f.Add(int64(9), uint8(50), uint8(4), uint16(300), uint8(20), uint8(8))
	f.Add(int64(4), uint8(60), uint8(3), uint16(250), uint8(23), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels uint8, edges uint16, count, workers uint8) {
		v := 2 + int(vertices)%100
		l := 1 + int(labels)%5
		g := batchTestGraph(t, seed, v, l, 1+int(edges)%(4*v))
		cfg := Config{MaxPathLength: 3, Buckets: 6}
		build := func(cacheBytes int64, shards int) *Estimator {
			cfg.CacheBytes, cfg.CacheShards = cacheBytes, shards
			est, err := Build(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return est
		}
		rng := rand.New(rand.NewSource(seed))
		queries := batchWorkload(rng, g.Labels(), 1+int(count)%24, 3)
		var rpqs [4]string
		for i := range rpqs {
			rpqs[i] = randomRPQPattern(rng, g.Labels(), 3)
		}
		for i := range queries {
			if rng.Intn(2) == 0 {
				queries[i] = rpqs[rng.Intn(len(rpqs))]
			}
		}
		ref := build(0, 0)
		want := make([]int64, len(queries))
		for i, q := range queries {
			var err error
			if want[i], err = g.TruePatternSelectivity(q); err != nil {
				t.Fatal(err)
			}
			if st, err := executeQuery(ref, q); err != nil || st.Result != want[i] {
				t.Fatalf("uncached %q: result %d (err %v), want %d", q, st.Result, err, want[i])
			}
		}
		w := 1 + int(workers)%8
		check := func(name string, est *Estimator) {
			for pass := 0; pass < 2; pass++ {
				res, err := executeBatch(context.Background(), est, queries, w)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range res {
					if r.Result != want[i] {
						t.Fatalf("%s cache, pass %d workers %d: query %q result %d, want %d",
							name, pass, w, r.Query, r.Result, want[i])
					}
				}
			}
		}
		roomy := build(DefaultCacheBytes, 0)
		check("roomy", roomy)
		held, _ := roomy.CacheStats()
		tight := build(max(held.Bytes/2, 1), 1)
		check("tight", tight)
		// A sequential run that neither evicted nor refused anything did
		// what the roomy one did, and would hold the same bytes — twice
		// its budget.
		if st, _ := tight.CacheStats(); w == 1 && held.Entries > 1 && st.Rejected == 0 && st.Evictions == 0 {
			t.Fatalf("half of the roomy cache's %d bytes (%d entries) held everything: %+v", held.Bytes, held.Entries, st)
		}
	})
}
