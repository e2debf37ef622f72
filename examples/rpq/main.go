// RPQ scenario: regular path queries through the parse-once Compile
// API. A pattern like a/(b|c)/d?/e{1,3} is compiled once into an
// expression DAG — alternation as a union of label relations, `?` as an
// identity-skip edge, `{m,n}` as unrolled powers that publish under the
// same cache keys concrete queries use — and the handle is executed
// many times without reparsing. The example compiles a few patterns,
// compares the compiled estimate against the exact answer, shows that a
// repetition's unrolled powers warm the relation cache for concrete
// queries (and vice versa), and runs a compiled workload through the
// parse-once batch executor.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pathsel"
)

func main() {
	g, err := pathsel.GenerateDataset("SNAP-FF", 0.08, 7)
	if err != nil {
		log.Fatal(err)
	}
	labels := g.Labels()
	fmt.Printf("graph: %d vertices, %d edges, labels %v\n", g.NumVertices(), g.NumEdges(), labels)

	est, err := pathsel.Build(g, pathsel.Config{
		MaxPathLength: 3,
		Buckets:       32,
		CacheBytes:    32 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	a, b, c, d := labels[0], labels[1], labels[2], labels[3]
	patterns := []string{
		a + "/(" + b + "|" + c + ")",            // alternation
		a + "?/" + b + "/" + c,                  // optional first step
		b + "{1,3}",                             // bounded repetition
		a + "/(" + b + "|" + c + ")/" + d + "?", // the full grammar in one query
	}

	fmt.Println("\ncompile once, execute and estimate from the same handle:")
	for _, p := range patterns {
		x, err := est.Compile(p)
		if err != nil {
			log.Fatal(err)
		}
		st, err := x.ExecuteCtx(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		exact, err := g.TruePatternSelectivity(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s lengths [%d,%d]  estimate %8.0f  exact %6d  result %6d  plan %s\n",
			x.Pattern(), x.MinLen(), x.MaxLen(), x.Estimate(), exact, st.Result, st.Plan.Description)
	}

	// The repetition b{1,3} unrolled b² and b³ into the persistent cache
	// under the same keys a concrete b/b query uses — so the concrete
	// query is answered by adoption, not recomputation.
	st, err := est.ExecuteQuery(b + "/" + b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconcrete %s/%s after b{1,3}: %d cache hits, %d misses (adopts the unrolled power)\n",
		b, b, st.CacheHits, st.CacheMisses)

	// Parse-once batch: compile the workload a single time, execute the
	// handles as one batch through the shared cache.
	xs := make([]*pathsel.Expr, len(patterns))
	for i, p := range patterns {
		if xs[i], err = est.Compile(p); err != nil {
			log.Fatal(err)
		}
	}
	res, err := est.ExecuteExprBatchCtx(context.Background(), xs, pathsel.BatchOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncompiled batch:")
	for _, r := range res.Results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("  %-24s result %6d  hits %d\n", r.Query, r.Result, r.CacheHits)
	}
	fmt.Printf("cache after batch: %.0f%% hit rate over %d lookups\n",
		100*res.Cache.HitRate(), res.Cache.Hits+res.Cache.Misses)
}
