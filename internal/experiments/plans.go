package experiments

import (
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ordering"
	"repro/internal/paths"
)

// PlanCell is one ordering method's plan-quality measurement, over both
// plan spaces: the k linear zig-zag plans and the full bushy tree space.
type PlanCell struct {
	Method string
	Beta   int
	// Agreement is the fraction of queries where the histogram-driven
	// planner's chosen zig-zag plan costs exactly as much actual work as
	// the exact-statistics oracle's best zig-zag plan (equal-work ties
	// count as agreement — the planner lost nothing).
	Agreement float64
	// WorkRatio is (total work of chosen plans) / (total work of optimal
	// plans) — 1.0 means estimation errors never cost any actual work.
	WorkRatio float64
	// TreeAgreement and TreeWorkRatio are the same two measurements over
	// the tree space: the planner's Plan against the oracle's best plan
	// tree (every shape enumerated and executed).
	TreeAgreement float64
	TreeWorkRatio float64
	// OracleBushyWins is workload-level (identical in every cell): the
	// fraction of queries where the best bushy tree does strictly less
	// actual work than the best zig-zag plan — how often the wider plan
	// space matters at all, independent of estimator quality.
	OracleBushyWins float64
	// CacheBushyWins is the same workload measured in the warm-cache
	// regime (identical in every cell): the fraction of queries where
	// the exact-statistics planner, made cache-aware by a probe that
	// marks every length-2 segment as cached (the steady state of a
	// workload whose two-label subsequences recur), chooses a bushy join
	// over every zig-zag plan. Cold, a length-4 split always pays to
	// materialize both halves, so bushy rarely wins (OracleBushyWins);
	// warm, the halves are free and only the join's consume costs
	// remain — this measures how often that flips the choice.
	CacheBushyWins float64
}

// enumerateTrees lists every plan tree over segment [lo, hi) — all
// zig-zag leaves and all bushy splits, recursively. For the experiment's
// length-4 queries that is 31 trees.
func enumerateTrees(lo, hi int) []*exec.PlanTree {
	var out []*exec.PlanTree
	for s := lo; s < hi; s++ {
		out = append(out, &exec.PlanTree{Lo: lo, Hi: hi, Start: s})
	}
	for m := lo + 1; m < hi; m++ {
		for _, l := range enumerateTrees(lo, m) {
			for _, r := range enumerateTrees(m, hi) {
				out = append(out, &exec.PlanTree{Lo: lo, Hi: hi, Start: -1, Left: l, Right: r})
			}
		}
	}
	return out
}

// startPlan is the hand-built plan running q as the zig-zag from start.
func startPlan(q paths.Path, start int) *exec.DagPlan {
	return exec.PathPlan(q, &exec.PlanTree{Lo: 0, Hi: len(q), Start: start})
}

// PlanQuality is the end-to-end experiment the paper's introduction
// motivates but does not run: feed each ordering method's histogram
// estimates into the planner and measure how often the resulting plans
// match the exact-statistics oracle's work, and how much extra work the
// mistakes cost. It measures two plan spaces per method: the k zig-zag
// plans of a length-k query (one per join start position), and the full
// bushy tree space (every way to split the query into independently
// built segments joined relation×relation), whose oracle is computed by
// executing every tree shape. The larger spaces widen the spread between
// good and bad estimators: a mediocre histogram can still get a binary
// direction right, but ranking interior starts — and interior segment
// pairs — correctly demands accurate segment estimates.
//
// Queries are length 4 over a census (and histogram) bounded at k = 3:
// a length-4 plan — linear or bushy — only ever feeds segments of length
// ≤ 3 into its cost, so planning queries one step beyond the statistics
// bound is exactly what the plan search is for. Length 4 also matters
// structurally: it is the shortest query where a bushy tree can beat
// every zig-zag plan (a k = 3 split always has a single-label side,
// whose materialization a zig-zag step gets for free). Dataset: Moreno
// Health substitute, queries with non-empty answers.
func PlanQuality(opt Options) ([]PlanCell, error) {
	m, err := newMoreno(opt)
	if err != nil {
		return nil, err
	}
	g, census := m.g, m.census

	// Query workload: length-4 paths with non-empty answers (plans for
	// empty queries are all equally cheap).
	rng := rand.New(rand.NewSource(opt.Seed))
	k := census.K() + 1 // plan-search bound: segments stay within the census
	var queries []paths.Path
	for len(queries) < opt.Queries {
		p := make(paths.Path, k)
		for i := range p {
			p[i] = rng.Intn(g.NumLabels())
		}
		if paths.Selectivity(g, p) > 0 {
			queries = append(queries, p)
		}
	}

	// Actual work per query for every zig-zag start and every tree shape,
	// measured once on the hybrid executor; the per-query optima are the
	// two oracles' floors, and the per-shape works (keyed by the tree's
	// canonical description) are the lookup the per-method loop below
	// reads instead of re-executing each chosen tree.
	trees := enumerateTrees(0, k)
	works := make([][]int64, len(queries))              // by zig-zag start
	treeWorks := make([]map[string]int64, len(queries)) // by tree shape
	optima := make([]int64, len(queries))
	treeOptima := make([]int64, len(queries))
	bushyWins := 0
	for i, q := range queries {
		works[i] = make([]int64, k)
		for s := 0; s < k; s++ {
			_, st, err := exec.Run(g, startPlan(q, s), exec.Options{})
			if err != nil {
				return nil, err
			}
			works[i][s] = st.Work
		}
		optima[i] = works[i][0]
		for _, w := range works[i][1:] {
			if w < optima[i] {
				optima[i] = w
			}
		}
		treeWorks[i] = make(map[string]int64, len(trees))
		treeOptima[i] = optima[i]
		for _, tree := range trees {
			var w int64
			if tree.IsLeaf() {
				w = works[i][tree.Start]
			} else {
				_, st, err := exec.Run(g, exec.PathPlan(q, tree), exec.Options{})
				if err != nil {
					return nil, err
				}
				w = st.Work
				if w < treeOptima[i] {
					treeOptima[i] = w
				}
			}
			treeWorks[i][tree.Describe(k)] = w
		}
		if treeOptima[i] < optima[i] {
			bushyWins++
		}
	}
	oracleBushyWins := float64(bushyWins) / float64(len(queries))

	// Warm-cache regime: the exact-statistics planner with every length-2
	// segment marked cached (free to build). How often does the DP now
	// choose a bushy join? This is the measured answer to the ROADMAP's
	// "bushy rarely wins — cache segment relations" item: the same
	// workload, the same exact estimates, only reuse added.
	exactPlanner := exec.Planner{
		Est:    exec.EstimatorFunc(func(p paths.Path) float64 { return float64(census.Selectivity(p)) }),
		Cached: func(p paths.Path) bool { return len(p) == 2 },
	}
	cacheWins := 0
	for _, q := range queries {
		if !exactPlanner.Plan(exec.PathDag(q), 0).Tree.IsLeaf() {
			cacheWins++
		}
	}
	cacheBushyWins := float64(cacheWins) / float64(len(queries))

	var out []PlanCell
	for _, method := range ordering.PaperMethods() {
		ph, err := histogram(g, census, method, core.BuilderVOptimal, m.beta)
		if err != nil {
			return nil, err
		}
		planner := exec.Planner{Est: exec.EstimatorFunc(ph.Estimate)}
		agree, treeAgree := 0, 0
		var chosenWork, optimalWork, chosenTreeWork, optimalTreeWork int64
		for i, q := range queries {
			// One plan answers both spaces: its tree is the tree-space
			// choice, and the lowest-index minimum of its per-start costs
			// — the planner's tie rule — the zig-zag one.
			dp := planner.Plan(exec.PathDag(q), 0)
			w := works[i][slices.Index(dp.Costs, slices.Min(dp.Costs))]
			if w == optima[i] {
				agree++
			}
			chosenWork += w
			optimalWork += optima[i]

			tw, ok := treeWorks[i][dp.Tree.Describe(k)]
			if !ok {
				panic("experiments: chosen tree outside the enumerated shape space")
			}
			if tw == treeOptima[i] {
				treeAgree++
			}
			chosenTreeWork += tw
			optimalTreeWork += treeOptima[i]
		}
		ratio := func(chosen, optimal int64) float64 {
			if optimal > 0 {
				return float64(chosen) / float64(optimal)
			}
			return 1.0
		}
		out = append(out, PlanCell{
			Method: method, Beta: m.beta,
			Agreement:       float64(agree) / float64(len(queries)),
			WorkRatio:       ratio(chosenWork, optimalWork),
			TreeAgreement:   float64(treeAgree) / float64(len(queries)),
			TreeWorkRatio:   ratio(chosenTreeWork, optimalTreeWork),
			OracleBushyWins: oracleBushyWins,
			CacheBushyWins:  cacheBushyWins,
		})
	}
	return out, nil
}

func planTable(cells []PlanCell) *Table {
	t := &Table{Name: "plans", Title: "Plan quality: join planning from histogram estimates — k zig-zag plans and the bushy tree space per length-4 query, statistics bounded at k=3 (Moreno)",
		Header: []string{"method", "beta", "agreement", "work_ratio",
			"tree_agreement", "tree_work_ratio", "oracle_bushy_wins", "cache_bushy_wins"}}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{c.Method, strconv.Itoa(c.Beta),
			fixed(c.Agreement, 4), fixed(c.WorkRatio, 4), fixed(c.TreeAgreement, 4), fixed(c.TreeWorkRatio, 4),
			fixed(c.OracleBushyWins, 4), fixed(c.CacheBushyWins, 4)})
	}
	return t
}
