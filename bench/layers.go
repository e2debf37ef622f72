package main

import (
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ordering"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// Caps on how many distinct pool queries the heavier per-layer loops
// visit; the first entries of the ranked pool, so the set repeats exactly.
const (
	lookupEntries = 1024
	regretEntries = 96
	kernelEntries = 48
)

// maxPatternExpansions mirrors pathsel's bound on the expansions Compile
// sums estimates over; the exec level replays Compile's inner work with it.
const maxPatternExpansions = 10000

// layerEnv is the workload's statistics rebuilt module by module from
// the benchmark's own files, each step timed: the same deterministic
// histogram pathsel.Build produces, but with every layer's object in
// hand for the per-layer loops.
type layerEnv struct {
	sp     *spec
	csr    *graph.CSR
	census *paths.Census
	ord    ordering.Ordering
	ph     *core.PathHistogram
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// buildChain times dataset → graph → census → ordering → histogram.
func buildChain(sp *spec, m map[string]float64) (*layerEnv, error) {
	var ds dataset.Spec
	for _, d := range dataset.Table3() {
		if d.Name == sp.dataset {
			ds = d
		}
	}
	if ds.Name == "" {
		return nil, fmt.Errorf("unknown dataset %q", sp.dataset)
	}
	env := &layerEnv{sp: sp}
	t := time.Now()
	g := dataset.Generate(ds, sp.scale, datasetSeed)
	m["dataset.generate_ms"] = ms(time.Since(t))

	t = time.Now()
	env.csr = g.Freeze()
	m["graph.freeze_ms"] = ms(time.Since(t))

	t = time.Now()
	for l := 0; l < env.csr.NumLabels(); l++ {
		env.csr.LabelOperand(l)
		env.csr.PredecessorOperand(l)
	}
	m["graph.operands_ms"] = ms(time.Since(t))

	var err error
	t = time.Now()
	if env.ord, err = ordering.ForGraph(orderingOf(sp), env.csr, sp.cfg.MaxPathLength); err != nil {
		return nil, err
	}
	m["ordering.build_ms"] = ms(time.Since(t))

	t = time.Now()
	env.census = paths.NewCensusHybrid(env.csr, sp.cfg.MaxPathLength,
		paths.CensusOptions{Workers: sp.cfg.Workers, DensityThreshold: sp.cfg.DensityThreshold})
	d := time.Since(t)
	m["paths.census_ms"] = ms(d)
	m["paths.census_paths"] = float64(env.census.Size())
	m["paths.census_ns_per_path"] = float64(d) / float64(env.census.Size())

	t = time.Now()
	if env.ph, err = core.Build(env.census, env.ord, builderOf(sp), sp.cfg.Buckets); err != nil {
		return nil, err
	}
	m["core.build_ms"] = ms(time.Since(t))
	m["histogram.buckets"] = float64(env.ph.Buckets())
	m["core.mean_error_rate"] = core.Evaluate(env.ph, env.census).MeanErrorRate
	return env, nil
}

// orderingOf and builderOf apply pathsel.Config's defaults.
func orderingOf(sp *spec) string {
	if sp.cfg.Ordering != "" {
		return sp.cfg.Ordering
	}
	return ordering.MethodSumBased
}

func builderOf(sp *spec) string {
	if sp.cfg.Histogram != "" {
		return sp.cfg.Histogram
	}
	return core.BuilderVOptimal
}

// perCall times fn over items 0…n−1 in repeated passes — at least five,
// and until 20 ms have gone — and returns the median pass's ns per call.
func perCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var passes []float64
	for begin := time.Now(); len(passes) < 5 || (time.Since(begin) < 20*time.Millisecond && len(passes) < 1000); {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		passes = append(passes, float64(time.Since(t))/float64(n))
	}
	return median(passes)
}

// firstConcrete returns up to limit concrete paths of the pool with at
// least minLen labels, in rank order.
func firstConcrete(pool []entry, minLen, limit int) []paths.Path {
	var out []paths.Path
	for i := range pool {
		if p := pool[i].path; len(p) >= minLen && len(out) < limit {
			out = append(out, p)
		}
	}
	return out
}

// sink keeps the lookup loops' results alive so the calls are not
// optimised away.
var sink float64

// measureLookups times the estimate path's three steps on the pool's own
// concrete paths.
func measureLookups(env *layerEnv, pool []entry, m map[string]float64) {
	ps := firstConcrete(pool, 1, lookupEntries)
	idx := make([]int64, len(ps))
	for i, p := range ps {
		idx[i] = env.ord.Index(p)
	}
	hist := env.ph.Estimator()
	m["ordering.index_ns"] = perCall(len(ps), func(i int) { sink += float64(env.ord.Index(ps[i])) })
	m["histogram.find_ns"] = perCall(len(ps), func(i int) { sink += hist.Estimate(idx[i]) })
	m["core.estimate_ns"] = perCall(len(ps), func(i int) { sink += env.ph.Estimate(ps[i]) })
}

// planOnce does one planning of a pool entry, the way pathsel does it
// per compile and per execution.
func planOnce(pl exec.Planner, e *entry, vertices int, bushy bool) (exec.Plan, *exec.PlanTree, *exec.DagPlan) {
	if e.path == nil {
		return exec.Plan{}, nil, pl.PlanDag(&exec.RPQDag{Elems: e.elems}, vertices, bushy)
	}
	plan := exec.CheapestPlan(pl.Costs(e.path))
	var tree *exec.PlanTree
	if bushy {
		tree, _ = pl.ChooseTreeWithCost(e.path)
	}
	return plan, tree, nil
}

// measurePlanner counts the estimates one planning asks for and measures
// the estimate→plan link: how much more work the chosen zig-zag start
// executes than the best start would have.
func measurePlanner(env *layerEnv, pool []entry, m map[string]float64) error {
	var calls int64
	counting := exec.Planner{Est: exec.EstimatorFunc(func(p paths.Path) float64 {
		calls++
		return env.ph.Estimate(p)
	})}
	n := min(len(pool), lookupEntries)
	for i := 0; i < n; i++ {
		planOnce(counting, &pool[i], env.csr.NumVertices(), env.sp.cfg.BushyPlans)
	}
	m["exec.plan_estimator_calls"] = float64(calls) / float64(max(n, 1))

	pl := exec.Planner{Est: exec.EstimatorFunc(env.ph.Estimate)}
	rels := exec.NewRelPool(env.csr.NumVertices(), env.sp.cfg.DensityThreshold)
	opt := exec.Options{DensityThreshold: env.sp.cfg.DensityThreshold, Workers: env.sp.cfg.Workers, Pool: rels}
	var regrets []float64
	for _, p := range firstConcrete(pool, 2, regretEntries) {
		chosen := exec.CheapestPlan(pl.Costs(p)).Start
		var chosenWork, best int64 = 0, -1
		for start := range p {
			rel, st, err := exec.ExecutePlanChecked(env.csr, p, exec.Plan{Start: start}, opt)
			if err != nil {
				return fmt.Errorf("plan regret: %w", err)
			}
			rels.Put(rel)
			if start == chosen {
				chosenWork = st.Work
			}
			if best < 0 || st.Work < best {
				best = st.Work
			}
		}
		// +1 keeps the ratio defined when the best start materializes nothing.
		regrets = append(regrets, float64(chosenWork+1)/float64(best+1))
	}
	m["exec.plan_regret"] = mean(regrets)
	return nil
}

// twice runs a kernel once to size its destination and times the second,
// steady-state call.
func twice(fn func()) time.Duration {
	fn()
	t := time.Now()
	fn()
	return time.Since(t)
}

// perPair divides, guarding the empty case.
func perPair(d time.Duration, pairs int64) float64 {
	if pairs == 0 {
		return 0
	}
	return float64(d) / float64(pairs)
}

// measureKernels times the relation kernels on the relations the pool's
// own concrete queries produce: the last compose step, the middle join,
// and reverse, copy and clone of the result. With a cache configured it
// also times Put and Get of those results on a cache of the workload's
// budget.
func measureKernels(env *layerEnv, pool []entry, m map[string]float64) {
	n, density := env.csr.NumVertices(), env.sp.cfg.DensityThreshold
	scr := bitset.NewComposeScratch(n)
	full, joined, rev, cp := bitset.NewHybrid(n, density), bitset.NewHybrid(n, density), bitset.NewHybrid(n, density), bitset.NewHybrid(n, density)
	var cache *relcache.Cache
	if env.sp.cfg.CacheBytes > 0 {
		cache = relcache.New(relcache.Options{MaxBytes: env.sp.cfg.CacheBytes, Shards: env.sp.cfg.CacheShards})
	}
	var compose, join, reverse, copyT, clone, put time.Duration
	var composePairs, joinPairs, pairs, rows, denseRows int64
	ps := firstConcrete(pool, 2, kernelEntries)
	for _, p := range ps {
		last := len(p) - 1
		prefix := paths.EvaluateWithDensity(env.csr, p[:last], density)
		op := env.csr.LabelOperand(p[last])
		compose += twice(func() { prefix.ComposeInto(full, op, scr) })
		composePairs += full.Pairs()

		left := paths.EvaluateWithDensity(env.csr, p[:len(p)/2], density)
		right := paths.EvaluateWithDensity(env.csr, p[len(p)/2:], density)
		join += twice(func() { left.JoinInto(joined, right, scr) })
		joinPairs += joined.Pairs()

		reverse += twice(func() { full.ReverseInto(rev) })
		copyT += twice(func() { full.CopyInto(cp) })
		t := time.Now()
		c := full.Clone()
		clone += time.Since(t)
		pairs += c.Pairs()
		for s := 0; s < n; s++ {
			if full.RowCount(s) > 0 {
				rows++
				if full.RowDense(s) {
					denseRows++
				}
			}
		}
		if cache != nil {
			t = time.Now()
			cache.Put(p, false, full)
			put += time.Since(t)
		}
	}
	m["bitset.compose_ns_per_pair"] = perPair(compose, composePairs)
	m["bitset.join_ns_per_pair"] = perPair(join, joinPairs)
	m["bitset.reverse_ns_per_pair"] = perPair(reverse, pairs)
	m["bitset.copy_ns_per_pair"] = perPair(copyT, pairs)
	m["bitset.clone_ns_per_pair"] = perPair(clone, pairs)
	if rows > 0 {
		m["bitset.dense_row_share"] = float64(denseRows) / float64(rows)
	}
	if cache != nil && len(ps) > 0 {
		m["relcache.put_us"] = float64(put) / float64(len(ps)) / 1e3
		m["relcache.get_ns"] = perCall(len(ps), func(i int) {
			if rel, _, ok := cache.Get(ps[i]); ok {
				sink += float64(rel.Pairs())
			}
		})
	}
}
