package pathsel

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workload"
)

// The serving-layer concurrency contract, pinned at the library level:
// many goroutines hammering one estimator — and its one persistent
// segment-relation cache — through one-off and concurrent workloads of
// ExecuteCtx calls must produce results bit-identical to a single-threaded uncached
// reference, while the cache's byte accounting stays consistent under
// concurrent LRU mutation. Run with -race in CI; test names match the
// chaos-leg regex (Concurrent).

// concurrentHarness is a shared-cache estimator plus a single-threaded
// uncached reference answer for every query in a Zipf pool.
type concurrentHarness struct {
	est   *Estimator
	trace []string         // rendered query per trace arrival
	want  map[string]int64 // uncached single-threaded reference
}

// newConcurrentHarness builds the estimator under test (persistent
// cache, given join workers), a Zipf-distributed query trace over a
// ranked pool, and the reference results from a cache-less twin.
func newConcurrentHarness(t *testing.T, joinWorkers, traceLen int, seed int64) *concurrentHarness {
	t.Helper()
	g := batchTestGraph(t, 31, 60, 3, 900)
	cfg := Config{MaxPathLength: 3, Buckets: 32, Workers: joinWorkers}
	ref, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheBytes = DefaultCacheBytes
	est, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pool, err := workload.QueryPool(g.Labels(), 3, 24, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ZipfTrace(len(pool), workload.TraceOptions{N: traceLen, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	h := &concurrentHarness{est: est, want: make(map[string]int64)}
	for _, a := range tr {
		h.trace = append(h.trace, pool[a.Rank])
	}
	for _, q := range h.trace {
		if _, ok := h.want[q]; ok {
			continue
		}
		st, err := executeQuery(ref, q)
		if err != nil {
			t.Fatalf("reference execution of %q: %v", q, err)
		}
		h.want[q] = st.Result
	}
	return h
}

// checkCacheAccounting asserts the persistent cache's invariants: the
// byte occupancy never exceeds the budget, live entries are consistent
// with the cumulative put/eviction traffic (puts count overwrites, so
// live entries can only be fewer), and an empty cache holds no bytes.
func checkCacheAccounting(t *testing.T, est *Estimator) CacheStats {
	t.Helper()
	cs, ok := est.CacheStats()
	if !ok {
		t.Fatal("estimator under test has no persistent cache")
	}
	if cs.Bytes < 0 || cs.Bytes > cs.MaxBytes {
		t.Fatalf("cache bytes %d outside [0, %d]", cs.Bytes, cs.MaxBytes)
	}
	if cs.Entries < 0 || uint64(cs.Entries) > cs.Puts-cs.Evictions {
		t.Fatalf("cache entries %d inconsistent with %d puts − %d evictions",
			cs.Entries, cs.Puts, cs.Evictions)
	}
	if cs.Entries == 0 && cs.Bytes != 0 {
		t.Fatalf("empty cache holds %d bytes", cs.Bytes)
	}
	return cs
}

// TestConcurrentQueriesSharedCache fans a Zipf trace across N goroutines
// all calling ExecuteQuery on one estimator, at several worker counts
// (request-level concurrency × join-level parallelism), and asserts
// every result is bit-identical to the uncached single-threaded
// reference while the shared cache mutates under the load.
func TestConcurrentQueriesSharedCache(t *testing.T) {
	for _, goroutines := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("goroutines=%d", goroutines), func(t *testing.T) {
			h := newConcurrentHarness(t, 1, 300, int64(100+goroutines))
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(h.trace); i += goroutines {
						q := h.trace[i]
						st, err := executeQuery(h.est, q)
						if err != nil {
							errs <- fmt.Errorf("query %q: %w", q, err)
							return
						}
						if st.Result != h.want[q] {
							errs <- fmt.Errorf("query %q: result %d, want %d", q, st.Result, h.want[q])
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			cs := checkCacheAccounting(t, h.est)
			if cs.Hits == 0 {
				t.Fatalf("a %d-query Zipf trace warmed no cache entries: %+v", len(h.trace), cs)
			}
		})
	}
}

// TestConcurrentBatchAndQueryMix runs concurrent workloads and
// single-query workers simultaneously against one estimator — the
// serving tier's actual regime when interactive queries overlap batch
// replays — and asserts exactness and cache accounting both ways.
func TestConcurrentBatchAndQueryMix(t *testing.T) {
	h := newConcurrentHarness(t, 2, 240, 7)
	batch := make([]string, 0, 40)
	for _, q := range h.trace[:40] {
		batch = append(batch, q)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := executeBatch(context.Background(), h.est, batch, 2)
			if err != nil {
				errs <- err
				return
			}
			for _, r := range res {
				if r.Err != nil {
					errs <- fmt.Errorf("batch worker %d, query %q: %w", w, r.Query, r.Err)
					return
				}
				if want := h.want[r.Query]; r.Result != want {
					errs <- fmt.Errorf("batch worker %d, query %q: result %d, want %d", w, r.Query, r.Result, want)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(h.trace); i += 4 {
				q := h.trace[i]
				st, err := executeQuery(h.est, q)
				if err != nil {
					errs <- fmt.Errorf("query %q: %w", q, err)
					return
				}
				if st.Result != h.want[q] {
					errs <- fmt.Errorf("query %q: result %d, want %d", q, st.Result, h.want[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := h.est.pool.InUse(); n != 0 {
		t.Errorf("pool has %d relations checked out after the concurrent workloads", n)
	}
	checkCacheAccounting(t, h.est)
}

// TestConcurrentCacheEvictionChurn shrinks the cache until the Zipf
// tail cannot fit, forcing continuous LRU eviction under concurrent
// readers — the regime where a byte-accounting bug or use-after-evict
// shows up — and asserts exactness throughout.
func TestConcurrentCacheEvictionChurn(t *testing.T) {
	g := batchTestGraph(t, 31, 60, 3, 900)
	ref, err := Build(g, Config{MaxPathLength: 3, Buckets: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately tiny cache: big enough to hold a few relations so
	// puts succeed, far too small for the pool's working set.
	est, err := Build(g, Config{MaxPathLength: 3, Buckets: 32, Workers: 1,
		CacheBytes: 16 << 10, CacheShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := workload.QueryPool(g.Labels(), 3, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ZipfTrace(len(pool), workload.TraceOptions{N: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int64)
	trace := make([]string, len(tr))
	for i, a := range tr {
		q := pool[a.Rank]
		trace[i] = q
		if _, ok := want[q]; !ok {
			st, err := executeQuery(ref, q)
			if err != nil {
				t.Fatal(err)
			}
			want[q] = st.Result
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < len(trace); i++ {
				q := trace[(i+rng.Intn(len(trace)))%len(trace)]
				st, err := executeQuery(est, q)
				if err != nil {
					errs <- fmt.Errorf("query %q: %w", q, err)
					return
				}
				if st.Result != want[q] {
					errs <- fmt.Errorf("query %q: result %d, want %d under eviction churn", q, st.Result, want[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cs, ok := est.CacheStats()
	if !ok {
		t.Fatal("no persistent cache")
	}
	if cs.Bytes < 0 || cs.Bytes > cs.MaxBytes {
		t.Fatalf("cache bytes %d outside [0, %d] after eviction churn", cs.Bytes, cs.MaxBytes)
	}
	if cs.Evictions == 0 && cs.Rejected == 0 {
		t.Fatalf("a 16KiB cache absorbed the whole working set (%d puts, %d bytes) — churn never happened",
			cs.Puts, cs.Bytes)
	}
}
