package bitset

import (
	"math/rand"
	"sync"
	"testing"
)

// pairList flattens a relation in iteration order, capturing both content
// and the active-source ordering that bit-identity depends on.
func pairList(h *HybridRelation) [][2]int {
	var out [][2]int
	h.ForEachPair(func(s, t int) bool {
		out = append(out, [2]int{s, t})
		return true
	})
	return out
}

// assertIdentical fails unless got and want hold the same pairs in the
// same iteration order with the same aggregates.
func assertIdentical(t *testing.T, ctx string, got, want *HybridRelation) {
	t.Helper()
	if got.Pairs() != want.Pairs() || got.Rows().Len() != want.Rows().Len() {
		t.Fatalf("%s: pairs/sources %d/%d != %d/%d",
			ctx, got.Pairs(), got.Rows().Len(), want.Pairs(), want.Rows().Len())
	}
	gp, wp := pairList(got), pairList(want)
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: pair[%d] = %v, want %v", ctx, i, gp[i], wp[i])
		}
	}
}

// shardBounds splits [0, n) into shards even-count shards.
func shardBounds(n, shards int) []int {
	bounds := make([]int, shards+1)
	for i := 0; i <= shards; i++ {
		bounds[i] = i * n / shards
	}
	return bounds
}

// TestComposeShardMatchesCompose pins the partitioned composition
// bit-identical to sequential ComposeInto: any shard partition of the
// active-source list, composed shard by shard and adopted in ascending
// order, must reproduce the sequential result exactly — same rows, same
// active order, same pair count.
func TestComposeShardMatchesCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(250)
		opA := RandomOperand(rng, n, 1+rng.Intn(5*n))
		opB := RandomOperand(rng, n, 1+rng.Intn(5*n))
		for _, density := range []float64{1e-9, 0.03125, 0.5, 1.0} {
			h := HybridFromCSR(opA, density)
			want := NewHybrid(n, density)
			h.ComposeInto(want, opB, NewComposeScratch(n))
			for _, shards := range []int{1, 2, 3, 7} {
				if shards > h.Rows().Len() && h.Rows().Len() > 0 {
					shards = h.Rows().Len()
				}
				if shards < 1 {
					shards = 1
				}
				dst := NewHybrid(n, density)
				dst.Reset()
				bounds := shardBounds(h.Rows().Len(), shards)
				scr := NewComposeScratch(n)
				for i := 0; i < shards; i++ {
					dst.AdoptShard(h.Rows().ComposeShard(dst, []CSROperand{opB}, scr, dst.sparseMax, bounds[i], bounds[i+1], nil))
				}
				assertIdentical(t, "sequential shards", dst, want)
			}
		}
	}
}

// TestComposeShardConcurrent runs disjoint shards concurrently against one
// shared destination — the parallel executor's access pattern — and
// verifies the adopted result is bit-identical to sequential ComposeInto.
// Run under -race this doubles as the proof that disjoint row ranges
// really are disjoint writes.
func TestComposeShardConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(300)
		opA := RandomOperand(rng, n, 1+rng.Intn(6*n))
		opB := RandomOperand(rng, n, 1+rng.Intn(6*n))
		for _, density := range []float64{0, 0.03125, 1.0} {
			h := HybridFromCSR(opA, density)
			want := NewHybrid(n, density)
			h.ComposeInto(want, opB, NewComposeScratch(n))
			shards := 4
			if h.Rows().Len() < shards {
				continue
			}
			dst := NewHybrid(n, density)
			dst.Reset()
			bounds := shardBounds(h.Rows().Len(), shards)
			srcs := make([][]int32, shards)
			counts := make([]Count, shards)
			var wg sync.WaitGroup
			for i := 0; i < shards; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					srcs[i], counts[i] = h.Rows().ComposeShard(dst, []CSROperand{opB}, NewComposeScratch(n),
						dst.sparseMax, bounds[i], bounds[i+1], nil)
				}()
			}
			wg.Wait()
			for i := 0; i < shards; i++ {
				dst.AdoptShard(srcs[i], counts[i])
			}
			assertIdentical(t, "concurrent shards", dst, want)
		}
	}
}

// TestComposeShardReusedDestination checks the pooling contract of the
// shard path: a destination that previously held rows (including dense
// ones) and is Reset by the coordinator produces the same result as a
// fresh relation.
func TestComposeShardReusedDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 180
	dst := NewHybrid(n, 0.1)
	scr := NewComposeScratch(n)
	for trial := 0; trial < 15; trial++ {
		opA := RandomOperand(rng, n, 1+rng.Intn(6*n))
		opB := RandomOperand(rng, n, 1+rng.Intn(6*n))
		h := HybridFromCSR(opA, 0.1)
		want := NewHybrid(n, 0.1)
		h.ComposeInto(want, opB, NewComposeScratch(n))
		dst.Reset()
		bounds := shardBounds(h.Rows().Len(), 3)
		for i := 0; i < 3; i++ {
			dst.AdoptShard(h.Rows().ComposeShard(dst, []CSROperand{opB}, scr, dst.sparseMax, bounds[i], bounds[i+1], nil))
		}
		assertIdentical(t, "reused dst", dst, want)
	}
}

// TestComposeShardBadRange pins the range validation.
func TestComposeShardBadRange(t *testing.T) {
	op := RandomOperand(rand.New(rand.NewSource(14)), 32, 60)
	h := HybridFromCSR(op, 0.5)
	dst := NewHybrid(32, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range shard should panic")
		}
	}()
	h.Rows().ComposeShard(dst, []CSROperand{op}, NewComposeScratch(32), dst.sparseMax, 0, h.Rows().Len()+1, nil)
}
