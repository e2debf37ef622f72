package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/faultinject"
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

// TestParallelMergePathMatchesSequential drives the sharded steps and
// their ascending-order merge on ordinary test graphs by lowering the
// granularity floor — a package var exactly so this test can exist — and
// asserts bit-identity to sequential execution at workers 1–16. With
// MinItems 1 the shard bounds routinely produce one-row and empty
// shards, covering the degenerate partitions.
func TestParallelMergePathMatchesSequential(t *testing.T) {
	defer func(g sched.Granularity) { shardGrain = g }(shardGrain)
	shardGrain = sched.Granularity{MinItems: 1, MinWork: 0, PerWorker: 4}
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
	g := randomGraph(41, 80, 2, 400) // far below 2×minShardPairs pairs per step
	p := paths.Path{0, 1, 0}
	_, st := runPlan(t, g, p, 0, Options{Workers: 8})
	if st.Sched.Tasks != 0 || st.Sched.Steals != 0 {
		t.Fatalf("small query sharded anyway: %+v", st.Sched)
	}
	defer func(gr sched.Granularity) { shardGrain = gr }(shardGrain)
	shardGrain = sched.Granularity{MinItems: 1, MinWork: 0, PerWorker: 4}
	_, st = runPlan(t, g, p, 0, Options{Workers: 8})
	if st.Sched.Tasks == 0 {
		t.Fatal("lowered floors did not shard — the floor test is vacuous")
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
