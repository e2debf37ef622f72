// Planner scenario: the full loop from statistics to executed plans. This
// example reaches below the public facade into the engine packages
// (allowed within this module) to show what the experiments measure: a
// histogram-driven planner choosing among every zig-zag join plan of each
// query — one plan per join start position, not just forward/backward —
// the hybrid executor carrying the choice out, and the actual
// intermediate-result volume of every plan compared against the
// exact-statistics oracle.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/ordering"
	"repro/internal/paths"
)

func main() {
	g := dataset.Generate(dataset.Table3()[0], 0.1, 3).Freeze()
	fmt.Printf("graph: %d vertices, %d edges, %d labels\n\n",
		g.NumVertices(), g.NumEdges(), g.NumLabels())

	const k = 3
	census := paths.NewCensusHybrid(g, k, paths.CensusOptions{})
	ph, _, err := core.BuildForGraph(g, ordering.MethodSumBased, core.BuilderVOptimal, k, 24)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("statistics: %d-bucket sum-based V-Optimal histogram over %d paths\n\n",
		ph.Buckets(), census.Size())

	planner := exec.Planner{Est: exec.EstimatorFunc(ph.Estimate)}
	oracle := exec.Planner{Est: exec.EstimatorFunc(func(p paths.Path) float64 {
		return float64(census.Selectivity(p))
	})}

	queries := []paths.Path{
		{0, 1, 2}, {5, 0, 0}, {1, 1, 1}, {3, 4, 0}, {0, 5, 5}, {2, 0, 1},
	}
	var chosenWork, bestWork int64
	agree := 0
	for _, q := range queries {
		plan := planner.Plan(exec.PathDag(q), 0, false).Blocks[0]
		chosen, estimated := plan.Tree.Start, plan.Costs
		best := oracle.Plan(exec.PathDag(q), 0, false).Blocks[0].Tree.Start

		// Execute every plan so estimated and actual volume line up per
		// plan — the spread is what estimator quality buys.
		fmt.Printf("query %s\n", q.Key())
		var result int64
		works := make([]int64, len(q))
		for s := range q {
			forced := exec.PathPlan(q, &exec.PlanTree{Lo: 0, Hi: len(q), Start: s})
			_, st, err := exec.Run(g, forced, exec.Options{})
			if err != nil {
				log.Fatal(err)
			}
			works[s] = st.Work
			result = st.Result
			mark := "  "
			if s == chosen {
				mark = "←chosen"
			}
			if s == best {
				mark += " ←oracle"
			}
			fmt.Printf("  plan %-9s estimated=%-9.1f actual=%-7d %s\n",
				forced.Describe(), estimated[s], st.Work, mark)
		}
		minWork := works[0]
		for _, w := range works[1:] {
			if w < minWork {
				minWork = w
			}
		}
		if works[chosen] == minWork {
			agree++
		}
		chosenWork += works[chosen]
		bestWork += minWork
		fmt.Printf("  result %d pairs\n\n", result)
	}
	fmt.Printf("chosen plans hit the optimum on %d/%d queries\n", agree, len(queries))
	fmt.Printf("total executed work: %d vs oracle %d (%.2fx)\n",
		chosenWork, bestWork, float64(chosenWork)/float64(bestWork))
}
