package bitset_test

import (
	"fmt"
	"math/rand"
	"testing"

	. "repro/internal/bitset"
	"repro/internal/oracle"
)

// referenceJoin computes A ∘ B pair by pair on the dense reference
// representation — the oracle every hybrid join kernel is pinned against.
func referenceJoin(a, b *oracle.Relation) *oracle.Relation {
	out := oracle.NewRelation(a.Universe())
	a.ForEachRow(func(s int, targets *oracle.Set) bool {
		targets.ForEach(func(t int) bool {
			if row := b.Row(t); row != nil {
				row.ForEach(func(u int) bool {
					out.Add(s, u)
					return true
				})
			}
			return true
		})
		return true
	})
	return out
}

// TestJoinMatchesReference pins JoinInto against the pairwise reference
// across universe sizes and every density-threshold combination of the
// three relations involved, so sparse×sparse, sparse×dense, dense×sparse,
// and dense×dense row pairings all occur, as do both output-row forms.
func TestJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	densities := []float64{0, 1e-9, 0.1, 1.0}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(140)
		da := densities[trial%4]
		db := densities[(trial/4)%4]
		dd := densities[(trial/16)%4]
		ha, ra := randomHybridAndDense(rng, n, rng.Intn(5*n), da)
		hb, rb := randomHybridAndDense(rng, n, rng.Intn(5*n), db)
		want := referenceJoin(ra, rb)
		dst := NewHybrid(n, dd)
		pairs := ha.JoinInto(dst, hb, NewComposeScratch(n))
		ctx := fmt.Sprintf("trial %d n %d densities %v/%v/%v", trial, n, da, db, dd)
		if pairs != want.Pairs() {
			t.Fatalf("%s: join pairs %d, reference %d", ctx, pairs, want.Pairs())
		}
		if !oracle.EqualRelation(dst, want) {
			t.Fatalf("%s: join content differs from reference", ctx)
		}
		// A fresh destination and scratch must agree.
		got := NewHybrid(n, dd)
		if ha.JoinInto(got, hb, NewComposeScratch(n)); !oracle.EqualRelation(got, want) {
			t.Fatalf("%s: fresh destination differs from reference", ctx)
		}
	}
}

// TestJoinSelf pins the self-join (h ∘ h), the aliasing case JoinInto
// explicitly permits.
func TestJoinSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(100)
		h, r := randomHybridAndDense(rng, n, rng.Intn(4*n), []float64{0, 1.0}[trial%2])
		want := referenceJoin(r, r)
		dst := NewHybrid(n, 0)
		h.JoinInto(dst, h, NewComposeScratch(n))
		if !oracle.EqualRelation(dst, want) {
			t.Fatalf("trial %d: self-join differs from reference", trial)
		}
	}
}

// TestJoinIntoReuse pins the pooling contract: a destination reused across
// joins of different relations holds exactly the latest result.
func TestJoinIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n := 90
	dst := NewHybrid(n, 0)
	scr := NewComposeScratch(n)
	for round := 0; round < 10; round++ {
		ha, ra := randomHybridAndDense(rng, n, rng.Intn(4*n), 0.1)
		hb, rb := randomHybridAndDense(rng, n, rng.Intn(4*n), 1.0)
		ha.JoinInto(dst, hb, scr)
		if want := referenceJoin(ra, rb); !oracle.EqualRelation(dst, want) {
			t.Fatalf("round %d: reused destination differs from reference", round)
		}
	}
}

// TestJoinShardMatchesSequential pins the partitioned form: any shard
// decomposition of the active range, adopted in ascending shard order,
// must reproduce sequential JoinInto exactly — content, pair count, and
// active-source order.
func TestJoinShardMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(150)
		ha, _ := randomHybridAndDense(rng, n, n+rng.Intn(5*n), 0)
		hb, _ := randomHybridAndDense(rng, n, n+rng.Intn(5*n), []float64{0, 1e-9, 1.0}[trial%3])
		seq := NewHybrid(n, 0)
		ha.JoinInto(seq, hb, NewComposeScratch(n))

		shards := 1 + rng.Intn(7)
		dst := NewHybrid(n, 0)
		dst.Reset()
		nact := ha.Rows().Len()
		srcs := make([][]int32, shards)
		counts := make([]Count, shards)
		for i := 0; i < shards; i++ {
			lo, hi := i*nact/shards, (i+1)*nact/shards
			srcs[i], counts[i] = ha.Rows().JoinShard(dst, hb, NewComposeScratch(n), dst.SparseMax(), lo, hi, nil)
		}
		for i := 0; i < shards; i++ {
			dst.AdoptShard(srcs[i], counts[i])
		}
		if dst.Pairs() != seq.Pairs() || !dst.Equal(seq) {
			t.Fatalf("trial %d shards %d: sharded join differs from sequential", trial, shards)
		}
		// Active order must match too: walk both pair streams in lockstep.
		type pr struct{ s, t int }
		var a, b []pr
		seq.ForEachPair(func(s, t int) bool { a = append(a, pr{s, t}); return true })
		dst.ForEachPair(func(s, t int) bool { b = append(b, pr{s, t}); return true })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d shards %d: pair stream diverges at %d", trial, shards, i)
			}
		}
	}
}

// TestJoinPanics pins the precondition checks.
func TestJoinPanics(t *testing.T) {
	h := NewHybrid(8, 0)
	r := NewHybrid(8, 0)
	bad := NewHybrid(9, 0)
	scr := NewComposeScratch(8)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("dst==h", func() { h.JoinInto(h, r, scr) })
	expectPanic("dst==r", func() { h.JoinInto(r, r, scr) })
	expectPanic("universe mismatch", func() { h.JoinInto(NewHybrid(8, 0), bad, scr) })
	expectPanic("dst universe mismatch", func() { h.JoinInto(bad, r, scr) })
	expectPanic("shard range", func() { h.Rows().JoinShard(NewHybrid(8, 0), r, scr, h.SparseMax(), 0, 5, nil) })
}

// FuzzJoinEquivalence fuzzes both operands' shapes, all three density
// thresholds, universes of one to four summary words, and the shard
// decomposition, asserting hybrid join ≡ dense reference and sharded ≡
// sequential on every input.
func FuzzJoinEquivalence(f *testing.F) {
	f.Add(int64(1), 40, 120, 90, float64(0), float64(1), float64(0), uint8(3), uint8(0))
	f.Add(int64(2), 8, 20, 300, float64(1e-9), float64(0), float64(1), uint8(1), uint8(0))
	f.Add(int64(3), 100, 0, 50, float64(0.1), float64(0.1), float64(1e-9), uint8(6), uint8(0))
	f.Add(int64(4), 17, 1000, 1000, float64(1), float64(1), float64(0), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, pairsA, pairsB int, da, db, dd float64, shards, scale uint8) {
		if n < 1 || n > 200 || pairsA < 0 || pairsA > 1000 || pairsB < 0 || pairsB > 1000 ||
			da < 0 || da > 1 || db < 0 || db > 1 || dd < 0 || dd > 1 {
			t.Skip()
		}
		n = ScaledUniverse(n, scale)
		rng := rand.New(rand.NewSource(seed))
		ha, ra := randomHybridAndDense(rng, n, pairsA, da)
		hb, rb := randomHybridAndDense(rng, n, pairsB, db)
		want := referenceJoin(ra, rb)
		dst := NewHybrid(n, dd)
		ha.JoinInto(dst, hb, NewComposeScratch(n))
		if !oracle.EqualRelation(dst, want) {
			t.Fatalf("join differs from dense reference (n=%d)", n)
		}
		ns := int(shards%8) + 1
		sharded := NewHybrid(n, dd)
		sharded.Reset()
		nact := ha.Rows().Len()
		scr := NewComposeScratch(n)
		type res struct {
			srcs []int32
			c    Count
		}
		results := make([]res, ns)
		for i := 0; i < ns; i++ {
			results[i].srcs, results[i].c = ha.Rows().JoinShard(
				sharded, hb, scr, sharded.SparseMax(), i*nact/ns, (i+1)*nact/ns, nil)
		}
		for _, r := range results {
			sharded.AdoptShard(r.srcs, r.c)
		}
		if !sharded.Equal(dst) || sharded.Pairs() != dst.Pairs() {
			t.Fatalf("sharded join differs from sequential (n=%d shards=%d)", n, ns)
		}
	})
}

// FuzzJoinCSREquivalence pins the join whose left rows are a label's CSR
// rows read in place — a zig-zag leaf's leftward step, L ∘ S — to the dense
// reference: operands with empty rows (and none at all), right relations
// under all three threshold regimes, dense rows among them, universes that
// are not a multiple of 64 and span up to four summary words, built into a
// dirty destination and counted, whole and at every two-way split of the
// operand's listed rows (from 256 rows on, every (1 + rows/256)-th, as
// assertSplits takes them).
func FuzzJoinCSREquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint16(120), uint16(90), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(17), uint16(0), uint16(300), uint8(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(100), uint16(3000), uint16(50), uint8(1), uint8(2), uint8(0))
	f.Add(int64(4), uint8(65), uint16(2000), uint16(4000), uint8(2), uint8(0), uint8(3))
	f.Add(int64(5), uint8(1), uint16(1), uint16(1), uint8(0), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, vertices uint8, edges, pairs uint16, rightRegime, dstRegime, scale uint8) {
		n := ScaledUniverse(int(vertices), scale)
		if n == 0 {
			t.Skip()
		}
		regimes := []float64{1, 0, 1e-9}
		rng := rand.New(rand.NewSource(seed))
		op := RandomOperand(rng, n, int(edges)%4096)
		left := oracle.NewRelation(n)
		for _, s := range op.Active {
			for _, u := range op.Targets[op.Offsets[s]:op.Offsets[s+1]] {
				left.Add(int(s), int(u))
			}
		}
		right, rr := randomHybridAndDense(rng, n, int(pairs)%8192, regimes[rightRegime%3])
		want := referenceJoin(left, rr)
		rows := op.Rows()
		if rows.Len() != len(op.Active) || rows.Pairs() != int64(len(op.Targets)) {
			t.Fatalf("CSR rows: %d positions, %d pairs; operand lists %d rows of %d pairs",
				rows.Len(), rows.Pairs(), len(op.Active), len(op.Targets))
		}
		dst, _ := RandomHybrid(rng, n, rng.Intn(4*n), regimes[dstRegime%3]) // dirty
		limit := dst.SparseMax()
		scr := NewComposeScratch(n)
		run := func(dst *HybridRelation, lo, hi int) ([]int32, Count) {
			return rows.JoinShard(dst, right, scr, limit, lo, hi, nil)
		}
		check := func(ctx string, built, counted Count) {
			t.Helper()
			if !oracle.EqualRelation(dst, want) {
				t.Fatalf("%s: join from CSR rows differs from the dense reference (n=%d)", ctx, n)
			}
			for _, c := range []Count{built, counted} {
				if c.Pairs != want.Pairs() || c.Sources != dst.Rows().Len() || c.CloneMemSize(n) != dst.CloneMemSize() {
					t.Fatalf("%s: count %+v, built relation %d pairs over %d sources, %d bytes",
						ctx, c, dst.Pairs(), dst.Rows().Len(), dst.CloneMemSize())
				}
			}
		}
		dst.Reset()
		srcs, built := run(dst, 0, rows.Len())
		dst.AdoptShard(srcs, built)
		_, counted := run(nil, 0, rows.Len())
		check("whole", built, counted)
		for cut := 0; cut <= rows.Len(); cut += 1 + rows.Len()/256 {
			dst.Reset()
			var built, counted Count
			for _, b := range [][2]int{{0, cut}, {cut, rows.Len()}} {
				srcs, c := run(dst, b[0], b[1])
				dst.AdoptShard(srcs, c)
				built.Add(c)
				_, c = run(nil, b[0], b[1])
				counted.Add(c)
			}
			check(fmt.Sprintf("split at %d", cut), built, counted)
		}
	})
}
