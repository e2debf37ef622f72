package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/paths"
	"repro/internal/sched"
)

// assertStatsEqual pins two executions' observable statistics identical.
func assertStatsEqual(t *testing.T, ctx string, got, want Stats) {
	t.Helper()
	if got.Result != want.Result || got.Work != want.Work {
		t.Fatalf("%s: result/work %d/%d != sequential %d/%d",
			ctx, got.Result, got.Work, want.Result, want.Work)
	}
	if len(got.Intermediates) != len(want.Intermediates) {
		t.Fatalf("%s: %d intermediates, sequential has %d",
			ctx, len(got.Intermediates), len(want.Intermediates))
	}
	for i := range want.Intermediates {
		if got.Intermediates[i] != want.Intermediates[i] {
			t.Fatalf("%s: intermediate[%d] = %d, sequential %d",
				ctx, i, got.Intermediates[i], want.Intermediates[i])
		}
	}
	if got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses {
		t.Fatalf("%s: cache hits/misses %d/%d != sequential %d/%d",
			ctx, got.CacheHits, got.CacheMisses, want.CacheHits, want.CacheMisses)
	}
}

// TestExecuteParallelMatchesSequential is the parallel executor's
// bit-identity property test: on random graphs across sizes, path
// lengths, density thresholds, every zig-zag start, and worker counts
// 1–16, Run must produce exactly the relation and statistics of
// its sequential (Workers: 1) mode. Run under -race (as CI does) it also
// proves the sharded compose steps are data-race-free.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		vertices := 40 + rng.Intn(200)
		labels := 1 + rng.Intn(4)
		edges := vertices + rng.Intn(8*vertices)
		g := randomGraph(int64(100+trial), vertices, labels, edges)
		n := 2 + rng.Intn(3)
		p := make(paths.Path, n)
		for i := range p {
			p[i] = rng.Intn(labels)
		}
		for _, density := range []float64{0, 1.0} {
			for s := 0; s < len(p); s++ {
				seqRel, seqSt := runPlan(t, g, p, s,
					Options{DensityThreshold: density, Workers: 1})
				for workers := 2; workers <= 16; workers += 2 {
					ctx := fmt.Sprintf("trial %d density %v start %d workers %d",
						trial, density, s, workers)
					rel, st := runPlan(t, g, p, s,
						Options{DensityThreshold: density, Workers: workers})
					if !rel.Equal(seqRel) {
						t.Fatalf("%s: parallel relation differs from sequential", ctx)
					}
					assertStatsEqual(t, ctx, st, seqSt)
				}
			}
		}
	}
}

// TestExecuteParallelLargeFanout forces the sharded path hard: a dense
// random graph whose intermediate relations activate most sources, so
// every join step actually partitions, at a worker count above GOMAXPROCS.
func TestExecuteParallelLargeFanout(t *testing.T) {
	g := randomGraph(7, 400, 2, 6000)
	p := paths.Path{0, 1, 0, 1}
	for s := range p {
		seqRel, seqSt := runPlan(t, g, p, s, Options{Workers: 1})
		rel, st := runPlan(t, g, p, s, Options{Workers: 16})
		if !rel.Equal(seqRel) {
			t.Fatalf("start %d: 16-worker relation differs from sequential", s)
		}
		assertStatsEqual(t, fmt.Sprintf("start %d", s), st, seqSt)
	}
}

// TestShardGrain pins the executor's sharding policy: one shard — the
// coordinator, no scheduler — below twice either floor or on one worker,
// otherwise workers×shardsPerWorker capped by both the row and the pair
// ceilings. The lowered floors the merge-path tests use shard every step
// of two rows or more.
func TestShardGrain(t *testing.T) {
	g := grain{rows: 32, pairs: 2048}
	cases := []struct {
		rows    int
		pairs   int64
		workers int
		want    int
	}{
		{1000, 100000, 1, 1},  // one worker: always sequential
		{63, 100000, 4, 1},    // under 2× the row floor
		{64, 100000, 4, 2},    // at it
		{1000, 4095, 4, 1},    // under 2× the pair floor
		{1000, 4096, 4, 2},    // at it
		{1000, 100000, 4, 16}, // wide open: workers×shardsPerWorker
		{1000, 100000, 2, 8},  // oversubscribed per worker
		{128, 100000, 4, 4},   // row-capped: 128/32
		{1000, 8192, 4, 4},    // pair-capped: 8192/2048
		{64, 4096, 16, 2},     // both floors just cleared
	}
	for _, c := range cases {
		if got := g.shards(c.rows, c.pairs, c.workers); got != c.want {
			t.Fatalf("shards(%d, %d, %d) = %d, want %d", c.rows, c.pairs, c.workers, got, c.want)
		}
	}
	low := grain{rows: 1, pairs: 1}
	if got := low.shards(1, 5, 4); got != 1 {
		t.Fatalf("lowered floors split one row into %d shards", got)
	}
	if got := low.shards(3, 3, 4); got != 3 {
		t.Fatalf("lowered floors: 3 rows of 3 pairs in %d shards, want 3", got)
	}
}

// TestParallelMergePathMatchesSequential drives the sharded steps and
// their ascending-order merge on ordinary test graphs by lowering the
// sharding floors — a package var exactly so this test can exist — and
// asserts bit-identity to sequential execution at workers 1–16. With a
// one-row floor the shard bounds routinely produce one-row and empty
// shards, covering the degenerate partitions.
func TestParallelMergePathMatchesSequential(t *testing.T) {
	defer func(g grain) { shardGrain = g }(shardGrain)
	shardGrain = grain{rows: 1, pairs: 1}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		vertices := 10 + rng.Intn(200)
		labels := 1 + rng.Intn(3)
		edges := vertices + rng.Intn(6*vertices)
		g := randomGraph(int64(500+trial), vertices, labels, edges)
		p := make(paths.Path, 2+rng.Intn(3))
		for i := range p {
			p[i] = rng.Intn(labels)
		}
		seqRel, seqSt := runPlan(t, g, p, 0, Options{Workers: 1})
		for workers := 1; workers <= 16; workers++ {
			rel, st := runPlan(t, g, p, 0, Options{Workers: workers})
			ctx := fmt.Sprintf("trial %d workers %d", trial, workers)
			if !rel.Equal(seqRel) {
				t.Fatalf("%s: merged relation differs from sequential", ctx)
			}
			assertStatsEqual(t, ctx, st, seqSt)
		}
	}
}

// TestGranularityFloorSkipsScheduler pins the adaptive sequential floor
// observably: a small query at a high worker count must run every step
// sequentially — zero scheduler tasks, steals, and parks in Stats.Sched —
// because its relations sit under the row and pair floors, while the
// same query with the floors lowered does shard.
func TestGranularityFloorSkipsScheduler(t *testing.T) {
	g := randomGraph(41, 80, 2, 400) // far below 2×shardGrain.pairs per step
	p := paths.Path{0, 1, 0}
	_, st := runPlan(t, g, p, 0, Options{Workers: 8})
	if st.Sched.Tasks != 0 || st.Sched.Steals != 0 {
		t.Fatalf("small query sharded anyway: %+v", st.Sched)
	}
	defer func(gr grain) { shardGrain = gr }(shardGrain)
	shardGrain = grain{rows: 1, pairs: 1}
	_, st = runPlan(t, g, p, 0, Options{Workers: 8})
	if st.Sched.Tasks == 0 {
		t.Fatal("lowered floors did not shard — the floor test is vacuous")
	}
}

// TestJoinShardsByItsLargerSide pins a join's sharding to its larger side:
// a bushy join of a small left child — label 0, 100 rows of one pair, far
// under the pair floor — with a large right one — label 1, 50 rows of 100
// pairs, under the row floor, so building it never shards — splits its
// left rows at 4 workers, because each of them reads the right side's rows.
// The answer is the dense reference's at 1 and 4 workers.
func TestJoinShardsByItsLargerSide(t *testing.T) {
	g := graph.New(200, 2)
	for v := 0; v < 100; v++ {
		g.AddEdge(v, 0, v/2)
	}
	for v := 0; v < 50; v++ {
		for u := 0; u < 100; u++ {
			g.AddEdge(v, 1, (v+u)%200)
		}
	}
	c := g.Freeze()
	p := paths.Path{0, 1}
	left, right := c.LabelOperand(0), c.LabelOperand(1)
	if rows, pairs := len(left.Active), len(left.Targets); rows < 2*shardGrain.rows || pairs >= int(2*shardGrain.pairs) {
		t.Fatalf("left child has %d rows and %d pairs: want ≥ %d rows and under %d pairs", rows, pairs, 2*shardGrain.rows, 2*shardGrain.pairs)
	}
	if rows, pairs := len(right.Active), len(right.Targets); rows >= 2*shardGrain.rows || pairs < int(2*shardGrain.pairs) {
		t.Fatalf("right child has %d rows and %d pairs: want under %d rows and ≥ %d pairs", rows, pairs, 2*shardGrain.rows, 2*shardGrain.pairs)
	}
	tree := &PlanTree{Lo: 0, Hi: 2, Start: -1, Left: &PlanTree{Lo: 0, Hi: 1, Start: 0}, Right: &PlanTree{Lo: 1, Hi: 2, Start: 1}}
	dense, _ := oracle.ExecuteDense(c, p, oracle.Forward)
	for _, workers := range []int{1, 4} {
		rel, st := runTree(t, c, p, tree, Options{Workers: workers})
		if !oracle.EqualRelation(rel, dense) {
			t.Fatalf("workers %d: differs from the dense reference", workers)
		}
		if sharded := st.Sched.Tasks > 0; sharded != (workers > 1) {
			t.Fatalf("workers %d: %d scheduler tasks", workers, st.Sched.Tasks)
		}
	}
}

// TestAbortedStepLeavesNoStaleRows pins what an execution a panic aborts
// hands back to the pool: relations with every row empty, listed or not. A
// step that dies mid-shard has written rows it never listed, and such a row
// would read as content to whatever reads rows by vertex — a later query's
// eps step, which the test runs over the reused relation, or a join's right
// side. The panic comes from inside a kernel row (the last left row has a
// target outside the universe) on one shard and sharded, and from the
// exec.shard site.
func TestAbortedStepLeavesNoStaleRows(t *testing.T) {
	g := randomGraph(7, 400, 2, 12000)
	n := g.NumVertices()
	ops := []bitset.CSROperand{g.LabelOperand(0)}
	left := g.LabelOperand(1)
	bad := left
	bad.Targets = slices.Clone(left.Targets)
	bad.Targets[len(bad.Targets)-1] = int32(n + 7)
	shardPanic := faultinject.Rule{Site: "exec.shard", Skip: 1, Count: 1, Action: faultinject.ActPanic}
	for _, tc := range []struct {
		name    string
		left    bitset.CSROperand
		workers int
		rules   []faultinject.Rule
	}{
		{"kernel row, one shard", bad, 1, nil},
		{"kernel row, sharded", bad, 4, nil},
		{"exec.shard site", left, 4, []faultinject.Rule{shardPanic}},
	} {
		pool := NewRelPool(n, 0)
		x := newCore(g, Options{Pool: pool, Workers: tc.workers})
		faultinject.Install(faultinject.NewInjector(tc.rules...))
		_, _, err := x.finish(func() (*bitset.HybridRelation, error) {
			dst := x.take()
			return dst, x.compose(tc.left.Rows(), dst, ops[0])
		})
		faultinject.Uninstall()
		if err == nil || pool.InUse() != 0 {
			t.Fatalf("%s: err %v, %d relations in use; want a contained panic and none", tc.name, err, pool.InUse())
		}
		rel := pool.Get()
		_, c := rel.Extend(true, false).ComposeShard(nil, ops, bitset.NewComposeScratch(n), x.limit, 0, n, nil)
		if want := int64(len(ops[0].Targets)); c.Pairs != want {
			t.Fatalf("%s: an eps step over the reused relation counts %d pairs, want %d: stale rows survived", tc.name, c.Pairs, want)
		}
		pool.Put(rel)
	}
}

// TestCancelMidStepEndsTheRoundNormally pins how a sharded step is
// cancelled, the scheduler having no cancellation of its own: the
// Canceller's flag, raised from inside one shard, makes the kernels
// return early, yet the round's drain ends normally — every shard task
// runs, none is dropped, no *sched.PanicError — and the step fails with
// the canceller's cause. The same stepper then runs the step uncancelled
// to the sequential count.
func TestCancelMidStepEndsTheRoundNormally(t *testing.T) {
	g := randomGraph(7, 400, 2, 12000)
	op, left := g.LabelOperand(0), g.LabelOperand(1)
	const workers = 4
	shards := shardGrain.shards(left.Rows().Len(), left.Rows().Pairs(), workers)
	if shards < 2 {
		t.Fatalf("the step runs in %d shard — the test is vacuous", shards)
	}

	c := &Canceller{}
	x := newCore(g, Options{Workers: workers, Cancel: c})
	st := x.stepper()
	st.sch = sched.New(workers, func(w int, task shardTask) {
		if task.idx == 0 {
			c.Cancel(nil)
		}
		st.runShard(w, task)
	})
	dst := x.take()
	err := x.step(nil, dst, func() error { return x.compose(left.Rows(), dst, op) })
	var pe *sched.PanicError
	if !errors.Is(err, ErrCancelled) || errors.As(err, &pe) {
		t.Fatalf("cancelled step returned %v, want ErrCancelled and no panic", err)
	}
	if got := st.sch.Counters().Tasks; got != int64(shards) {
		t.Fatalf("the cancelled round ran %d of its %d shard tasks", got, shards)
	}

	// count runs the step on s counted, nothing emitted.
	count := func(s *stepper) (bitset.Count, error) {
		s.compose(left.Rows(), op)
		return s.run(nil)
	}
	seq := newCore(g, Options{Workers: 1})
	want, err := count(seq.stepper())
	if err != nil {
		t.Fatal(err)
	}
	st.setCancel(nil)
	got, err := count(st)
	if err != nil || got != want {
		t.Fatalf("after the cancelled round: %+v, %v; sequential %+v", got, err, want)
	}
	if n := st.sch.Counters().Tasks; n != int64(2*shards) {
		t.Fatalf("the clean round ran %d tasks, want %d", n-int64(shards), shards)
	}
}

// TestExecuteParallelLargeMerge is the large-graph bit-identity test of
// the shard merge with production constants: a 24 576-vertex graph whose
// compose tails carry thousands of sources per step, executed at several
// worker counts against the sequential reference.
func TestExecuteParallelLargeMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph merge test")
	}
	const largeMerge = 1 << 13 // sources a step's merged active list must reach
	g := randomGraph(43, 3*largeMerge, 2, 15*largeMerge)
	p := paths.Path{0, 1, 0}
	seqRel, seqSt := runPlan(t, g, p, 0, Options{Workers: 1})
	if seqRel.Sources() < largeMerge {
		t.Fatalf("graph too small for a large merge: %d sources", seqRel.Sources())
	}
	for _, workers := range []int{2, 4, 16} {
		rel, st := runPlan(t, g, p, 0, Options{Workers: workers})
		ctx := fmt.Sprintf("workers %d", workers)
		if !rel.Equal(seqRel) {
			t.Fatalf("%s: merged relation differs from sequential", ctx)
		}
		assertStatsEqual(t, ctx, st, seqSt)
		if st.Sched.Tasks == 0 {
			t.Fatalf("%s: no scheduler tasks on a graph this size", ctx)
		}
	}
}

// TestExecuteDefaultsParallel pins the Workers ≤ 0 → GOMAXPROCS default:
// the convenience entry points run the parallel engine and still match
// the dense reference (the existing equivalence suite covers this too;
// this test exists so the default's semantics are named somewhere).
func TestExecuteDefaultsParallel(t *testing.T) {
	g := randomGraph(9, 150, 3, 2000)
	p := paths.Path{0, 1, 2}
	dref, _ := oracle.ExecuteDense(g, p, oracle.Forward)
	rel, _ := runPlan(t, g, p, 0, Options{})
	if !oracle.EqualRelation(rel, dref) {
		t.Fatal("default-options Execute differs from dense reference")
	}
}

// FuzzExecParallelEquivalence fuzzes graph shape, path, plan start,
// density, and worker count, asserting parallel ≡ sequential ≡ dense on
// every input.
func FuzzExecParallelEquivalence(f *testing.F) {
	f.Add(int64(1), 60, 2, 300, uint16(0x1234), 0, float64(0), uint8(4))
	f.Add(int64(2), 120, 3, 900, uint16(0x0042), 1, float64(1), uint8(8))
	f.Add(int64(3), 40, 1, 80, uint16(0x0000), 0, float64(1e-9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels, edges int, pathBits uint16, start int, density float64, workers uint8) {
		if vertices < 1 || vertices > 250 || labels < 1 || labels > 4 ||
			edges < 0 || edges > 2000 || density < 0 || density > 1 {
			t.Skip()
		}
		g := randomGraph(seed, vertices, labels, edges)
		k := 1 + int(pathBits>>12)%4
		p := make(paths.Path, k)
		for i := range p {
			p[i] = int(pathBits>>(4*i)) % labels
		}
		if start < 0 || start >= k {
			t.Skip()
		}
		w := int(workers%16) + 1
		dref, _ := oracle.ExecuteDense(g, p, oracle.Forward)
		seqRel, seqSt := runPlan(t, g, p, start,
			Options{DensityThreshold: density, Workers: 1})
		rel, st := runPlan(t, g, p, start,
			Options{DensityThreshold: density, Workers: w})
		if !rel.Equal(seqRel) || !oracle.EqualRelation(rel, dref) {
			t.Fatalf("path %v start %d workers %d: parallel diverged", p, start, w)
		}
		if st.Result != seqSt.Result || st.Work != seqSt.Work {
			t.Fatalf("path %v start %d workers %d: stats diverged", p, start, w)
		}
	})
}
