package pathsel_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/pathsel"
)

// buildExampleGraph constructs the small deterministic graph shared by the
// examples below.
func buildExampleGraph() *pathsel.Graph {
	g := pathsel.NewGraph(6, []string{"knows", "likes"})
	edges := []struct {
		src   int
		label string
		dst   int
	}{
		{0, "knows", 1}, {1, "knows", 2}, {2, "knows", 3},
		{0, "likes", 2}, {1, "likes", 3}, {3, "likes", 4},
		{4, "knows", 5}, {2, "likes", 5},
	}
	for _, e := range edges {
		if _, err := g.AddEdge(e.src, e.label, e.dst); err != nil {
			log.Fatal(err)
		}
	}
	return g
}

// Example demonstrates the basic build-and-estimate flow.
func Example() {
	g := buildExampleGraph()
	est, err := pathsel.Build(g, pathsel.Config{
		MaxPathLength: 2,
		Ordering:      pathsel.OrderingSumBased,
		Buckets:       6, // β = |L2| → singleton buckets → exact estimates
	})
	if err != nil {
		log.Fatal(err)
	}
	e, err := est.Estimate("knows/likes")
	if err != nil {
		log.Fatal(err)
	}
	f, err := g.TrueSelectivity("knows/likes")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate %.0f, exact %d\n", e, f)
	// Output: estimate 3, exact 3
}

// ExampleEstimator_EstimatePrefix shows a prefix wildcard query: the
// aggregate selectivity of a path and all of its extensions, answered as a
// single histogram range query under a lexicographic ordering.
func ExampleEstimator_EstimatePrefix() {
	g := buildExampleGraph()
	est, err := pathsel.Build(g, pathsel.Config{
		MaxPathLength: 2,
		Ordering:      pathsel.OrderingLexCard,
		Buckets:       6,
	})
	if err != nil {
		log.Fatal(err)
	}
	e, err := est.EstimatePrefix("knows")
	if err != nil {
		log.Fatal(err)
	}
	f, err := est.TruePrefixSelectivity("knows")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knows/* ≈ %.0f (exact %d)\n", e, f)
	// Output: knows/* ≈ 9 (exact 9)
}

// ExampleEstimator_Save round-trips a synopsis through its binary form and
// answers a query without the original graph.
func ExampleEstimator_Save() {
	g := buildExampleGraph()
	est, err := pathsel.Build(g, pathsel.Config{MaxPathLength: 2, Buckets: 6})
	if err != nil {
		log.Fatal(err)
	}
	var blob bytes.Buffer
	if err := est.Save(&blob); err != nil {
		log.Fatal(err)
	}
	compact, err := pathsel.LoadEstimator(&blob)
	if err != nil {
		log.Fatal(err)
	}
	e, err := compact.Estimate("likes/likes")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s synopsis, %.0f\n", compact.Ordering(), e)
	// Output: sum-based synopsis, 2
}

// ExampleEstimator_Compile compiles a regular path query once and asks the
// handle everything: the length bounds of what it matches, the histogram
// estimate (bag semantics: a pair reached by two matching paths counts
// twice), and the executed answer (set semantics), which agrees with the
// enumerated-expansion ground truth.
func ExampleEstimator_Compile() {
	g := buildExampleGraph()
	est, err := pathsel.Build(g, pathsel.Config{MaxPathLength: 3, Buckets: 14})
	if err != nil {
		log.Fatal(err)
	}
	x, err := est.Compile("*/likes/*?")
	if err != nil {
		log.Fatal(err)
	}
	st, err := x.ExecuteCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	exact, err := g.TruePatternSelectivity(x.Pattern())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lengths [%d,%d], estimate %.0f, result %d, exact %d\n",
		x.MinLen(), x.MaxLen(), x.Estimate(), st.Result, exact)
	fmt.Println(st.Plan.Description)
	// Output:
	// lengths [2,3], estimate 8, result 7, exact 7
	// rpq ((0|1) ⋈ forward ⋈ (0|1)?)
}

// ExampleExpr_Plan shows the optimizer's view of one query: the estimated
// cost of every zig-zag start the choice was made over, beside the work
// the chosen plan actually did. With singleton buckets the estimates are
// exact, so the chosen start's estimated cost is the executed Work.
func ExampleExpr_Plan() {
	g := buildExampleGraph()
	est, err := pathsel.Build(g, pathsel.Config{MaxPathLength: 3, Buckets: 14})
	if err != nil {
		log.Fatal(err)
	}
	x, err := est.Compile("knows/likes/knows")
	if err != nil {
		log.Fatal(err)
	}
	plan := x.Plan()
	for start, cost := range plan.Costs {
		fmt.Printf("start %d: estimated cost %.0f\n", start, cost)
	}
	st, err := x.ExecuteCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chose %s (start %d): work %d, result %d\n",
		plan.Description, plan.Start, st.Work, st.Result)
	// Output:
	// start 0: estimated cost 7
	// start 1: estimated cost 6
	// start 2: estimated cost 6
	// chose zigzag@1 (start 1): work 6, result 1
}

// ExampleExpr_ExecuteCtx runs a compiled workload twice on an estimator
// with a segment-relation cache (Config.CacheBytes): the first pass
// materializes and publishes (and already adopts what its queries share),
// the second answers every query by a whole-query hit — same results, no
// intermediate work.
func ExampleExpr_ExecuteCtx() {
	g := buildExampleGraph()
	est, err := pathsel.Build(g, pathsel.Config{MaxPathLength: 3, Buckets: 14, CacheBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	var xs []*pathsel.Expr
	for _, q := range []string{"knows/likes", "knows/likes/knows", "likes/knows", "knows/likes"} {
		x, err := est.Compile(q)
		if err != nil {
			log.Fatal(err)
		}
		xs = append(xs, x)
	}
	for pass := 1; pass <= 2; pass++ {
		var work, result int64
		whole := 0
		for i, x := range xs {
			st, err := x.ExecuteCtx(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			work += st.Work
			if st.CacheHits > 0 && st.Work == 0 {
				whole++
			}
			if i == 1 {
				result = st.Result
			}
		}
		fmt.Printf("pass %d: work %d, whole-query hits %d/%d, %s = %d\n",
			pass, work, whole, len(xs), xs[1].Pattern(), result)
	}
	// Output:
	// pass 1: work 10, whole-query hits 2/4, knows/likes/knows = 1
	// pass 2: work 0, whole-query hits 4/4, knows/likes/knows = 1
}
