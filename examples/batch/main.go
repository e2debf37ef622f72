// Batch scenario: serving a query workload through the segment-relation
// cache. Real path-query traffic repeats itself — the same label
// subsequences appear in query after query — so the batch executor
// (pathsel.Estimator.ExecuteBatch) runs the whole workload through one
// shared cache: the first query to touch a segment materializes it, every
// later query adopts the finished relation by copy. The cache belongs to
// the estimator (Config.CacheBytes), so the example builds two over the
// same graph — one without a cache, one with — runs a 50-query workload
// on each, and prints the hit rate and wall clock of each pass, plus the
// second, fully warm pass where every query is answered by a whole-query
// cache hit.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/pathsel"
)

func main() {
	g, err := pathsel.GenerateDataset("SNAP-FF", 0.08, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// CacheBytes gives an estimator a persistent segment cache that every
	// ExecuteQuery and ExecuteBatch call keeps warming; without it every
	// execution computes its own relations — the cold baseline.
	build := func(cacheBytes int64) *pathsel.Estimator {
		est, err := pathsel.Build(g, pathsel.Config{
			MaxPathLength: 3,
			Buckets:       32,
			CacheBytes:    cacheBytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		return est
	}
	uncached, cached := build(0), build(32<<20)

	// A 50-query workload cycling through 8 distinct queries that share
	// two-label segments — the shape real traffic has.
	labels := g.Labels()
	pool := []string{
		labels[0] + "/" + labels[1] + "/" + labels[2],
		labels[1] + "/" + labels[2] + "/" + labels[0],
		labels[0] + "/" + labels[1] + "/" + labels[3],
		labels[2] + "/" + labels[0] + "/" + labels[1],
		labels[1] + "/" + labels[2] + "/" + labels[3],
		labels[3] + "/" + labels[0] + "/" + labels[1],
		labels[0] + "/" + labels[0] + "/" + labels[1],
		labels[2] + "/" + labels[3] + "/" + labels[0],
	}
	var workload []pathsel.Query
	for i := 0; i < 50; i++ {
		workload = append(workload, pathsel.Query(pool[i%len(pool)]))
	}

	run := func(name string, est *pathsel.Estimator) *pathsel.BatchResult {
		start := time.Now()
		res, err := est.ExecuteBatch(workload, pathsel.BatchOptions{})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		var totalWork int64
		for _, r := range res.Results {
			totalWork += r.Work
		}
		if res.Cached {
			fmt.Printf("%-12s %8.2fms  hit rate %5.1f%%  (%d hits, %d misses, %d entries, %.1f MiB)\n",
				name, float64(elapsed.Microseconds())/1000, 100*res.Cache.HitRate(),
				res.Cache.Hits, res.Cache.Misses, res.Cache.Entries,
				float64(res.Cache.Bytes)/(1<<20))
		} else {
			fmt.Printf("%-12s %8.2fms  (no cache)\n",
				name, float64(elapsed.Microseconds())/1000)
		}
		return res
	}

	fmt.Printf("\nworkload: %d queries, %d distinct\n\n", len(workload), len(pool))
	cold := run("cold", uncached)        // baseline: no cache
	run("first pass", cached)            // populates the shared cache
	second := run("second pass", cached) // fully warm: whole-query hits

	// Caching never changes results — only how they were produced.
	for i := range workload {
		if cold.Results[i].Result != second.Results[i].Result {
			log.Fatalf("query %d: warm result %d != cold %d",
				i, second.Results[i].Result, cold.Results[i].Result)
		}
	}
	warmHits := 0
	for _, r := range second.Results {
		if r.CacheHits > 0 && r.Work == 0 {
			warmHits++
		}
	}
	fmt.Printf("\nwarm pass answered %d/%d queries as whole-query cache hits\n",
		warmHits, len(workload))
}
