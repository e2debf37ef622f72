package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// The two kernels that read a label's relation from the graph instead of
// from a copy are pinned here to the chains they replaced, kept as the
// references: a step through a label set to fill-then-join, a leaf's first
// step to fill-then-compose.

// regimes are the promotion thresholds a fuzzed relation is built under:
// every row sparse, the default crossover, every row dense.
var regimes = []float64{1, 0, 1e-9}

// dirty returns a pooled destination still holding another relation, whose
// stale ids, words and counts a kernel has to overwrite.
func dirty(rng *rand.Rand, n int, density float64) *HybridRelation {
	return HybridFromCSR(RandomOperand(rng, n, rng.Intn(1+8*n)), density)
}

// assertSplits checks that every two-way split of items [0, items) — the
// shards composed into one Reset destination and adopted in order, and the
// same shards counted — is the whole relation.
func assertSplits(t *testing.T, ctx string, dst, want *HybridRelation, items int,
	build func(lo, hi int) ([]int32, int64), count func(lo, hi int) Count) {
	t.Helper()
	for cut := 0; cut <= items; cut++ {
		dst.Reset()
		srcs, pairs := build(0, cut)
		dst.AdoptShard(srcs, pairs)
		srcs, pairs = build(cut, items)
		dst.AdoptShard(srcs, pairs)
		assertBitIdentical(t, ctx+" split", dst, want)
		c := count(0, cut)
		c.Add(count(cut, items))
		assertCounts(t, ctx+" split", c, want)
	}
}

// assertClean fails unless the kernels left the scratch accumulator as
// they found it.
func assertClean(t *testing.T, ctx string, scr *ComposeScratch) {
	t.Helper()
	if len(scr.touched) != 0 || slices.ContainsFunc(scr.words, func(w uint64) bool { return w != 0 }) {
		t.Fatalf("%s: accumulator left dirty", ctx)
	}
}

// FuzzComposeUnionEquivalence pins a step through a label set,
// h ∘ (⋃ ops), bit-identical to the chain it replaced — the set's base
// filled, then joined — for label sets of every size, left relations with
// sparse, dense and empty rows, all three threshold regimes, a dirty pooled
// destination and a shard split at every position, the count form agreeing
// with the built one throughout.
func FuzzComposeUnionEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint16(200), uint8(0))
	f.Add(int64(2), uint8(200), uint8(8), uint16(900), uint8(1))
	f.Add(int64(3), uint8(130), uint8(5), uint16(4000), uint8(2))
	f.Add(int64(4), uint8(1), uint8(2), uint16(1), uint8(1))
	f.Add(int64(5), uint8(90), uint8(1), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels uint8, edges uint16, regime uint8) {
		n, nl := int(vertices), 1+int(labels)%8
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		ops := make([]CSROperand, nl)
		for l := range ops {
			// A label in four has no edges, as in FuzzUnionFillEquivalence.
			m := 0
			if rng.Intn(4) > 0 {
				m = rng.Intn(1 + int(edges)%4096/nl)
			}
			ops[l] = RandomOperand(rng, n, m)
		}
		density := regimes[regime%3]
		h := HybridFromCSR(RandomOperand(rng, n, rng.Intn(1+int(edges)%4096)), density)
		got, base, want := dirty(rng, n, density), NewHybrid(n, density), NewHybrid(n, density)
		scr := NewComposeScratch(n)
		for size := 1; size <= nl; size++ {
			fillChainRef(base, ops[:size])
			h.JoinInto(want, base, NewComposeScratch(n))
			h.ComposeUnionInto(got, ops[:size], scr)
			assertBitIdentical(t, "through a label set", got, want)
			assertCounts(t, "through a label set", h.ComposeShardCount(ops[:size], scr, 0, h.Sources()), want)
			assertClean(t, "through a label set", scr)
		}
		assertSplits(t, "through a label set", got, want, h.Sources(),
			func(lo, hi int) ([]int32, int64) { return h.ComposeShardInto(got, ops, scr, lo, hi, nil) },
			func(lo, hi int) Count { return h.ComposeShardCount(ops, scr, lo, hi) })
	})
}

// FuzzComposeCSREquivalence pins a leaf's first step, a ∘ op with the rows
// of a read from its CSR, bit-identical to the chain it replaced —
// FillFromCSR(a), then ComposeInto — over the same regimes, a dirty pooled
// destination and a vertex-range split at every position, the count form
// agreeing with the built one and with a promotion limit of its own.
func FuzzComposeCSREquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint16(200), uint16(150), uint8(0))
	f.Add(int64(2), uint8(200), uint16(3000), uint16(900), uint8(1))
	f.Add(int64(3), uint8(130), uint16(600), uint16(4000), uint8(2))
	f.Add(int64(4), uint8(1), uint16(1), uint16(1), uint8(1))
	f.Add(int64(5), uint8(90), uint16(0), uint16(500), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, vertices uint8, edgesA, edgesB uint16, regime uint8) {
		n := int(vertices)
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a, op := RandomOperand(rng, n, int(edgesA)%8192), RandomOperand(rng, n, int(edgesB)%8192)
		a.Dense = nil // the left side is read as rows only
		density := regimes[regime%3]
		got, want := dirty(rng, n, density), NewHybrid(n, density)
		scr := NewComposeScratch(n)
		HybridFromCSR(a, density).ComposeInto(want, op, NewComposeScratch(n))
		if pairs := a.ComposeInto(got, op, scr); pairs != want.Pairs() {
			t.Fatalf("first step returned %d pairs, want %d", pairs, want.Pairs())
		}
		assertBitIdentical(t, "first step", got, want)
		assertClean(t, "first step", scr)
		assertSplits(t, "first step", got, want, n,
			func(lo, hi int) ([]int32, int64) { return a.ComposeShardInto(got, op, scr, lo, hi, nil) },
			func(lo, hi int) Count { return a.ComposeShardCount(op, scr, got.SparseMax(), lo, hi) })
		assertClean(t, "first step shards", scr)
	})
}
