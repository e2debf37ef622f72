package bitset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The step kernels whose left rows or right operands are read from the
// graph instead of from a copy are pinned here to the chains they replaced,
// kept as the references: a step through a label set to fill-then-join, a
// leaf's first step to fill-then-compose.

// regimes are the promotion thresholds a fuzzed relation is built under:
// every row sparse, the default crossover, every row dense.
var regimes = []float64{1, 0, 1e-9}

// dirty returns a pooled destination still holding another relation, whose
// stale ids, words and counts a kernel has to overwrite.
func dirty(rng *rand.Rand, n int, density float64) *HybridRelation {
	return HybridFromCSR(RandomOperand(rng, n, rng.Intn(1+8*n)), density)
}

// counted is the Count of a step kernel's outcome.
func counted(_ []int32, c Count) Count { return c }

// assertSplits checks that every two-way split of items [0, items) — the
// shards built into one Reset destination and adopted in order, and the
// same shards counted — is the whole relation, and that the Counts the
// built shards return add up to it too. From 256 items on it takes every
// (1 + items/256)-th cut.
func assertSplits(t *testing.T, ctx string, dst, want *HybridRelation, items int,
	shard func(dst *HybridRelation, lo, hi int) ([]int32, Count)) {
	t.Helper()
	for cut := 0; cut <= items; cut += 1 + items/256 {
		dst.Reset()
		var built, c Count
		for _, b := range [][2]int{{0, cut}, {cut, items}} {
			srcs, bc := shard(dst, b[0], b[1])
			dst.AdoptShard(srcs, bc)
			built.Add(bc)
			c.Add(counted(shard(nil, b[0], b[1])))
		}
		assertBitIdentical(t, ctx+" split", dst, want)
		assertCounts(t, ctx+" split", c, want)
		assertCounts(t, ctx+" built split", built, want)
	}
}

// assertClean fails unless the kernels left the scratch accumulator and its
// summary as they found them: all zero.
func assertClean(t *testing.T, ctx string, scr *ComposeScratch) {
	t.Helper()
	nonzero := func(w uint64) bool { return w != 0 }
	if slices.ContainsFunc(scr.words, nonzero) || slices.ContainsFunc(scr.sum, nonzero) {
		t.Fatalf("%s: accumulator left dirty", ctx)
	}
}

// FuzzComposeUnionEquivalence pins a step through a label set,
// h ∘ (⋃ ops), bit-identical to the chain it replaced — the set's base
// filled, then joined — for label sets of every size, left relations with
// sparse, dense and empty rows, all three threshold regimes, universes of
// one to four summary words, a dirty pooled destination and a shard split
// at every position, the count form agreeing with the built one throughout.
func FuzzComposeUnionEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint16(200), uint8(0), uint8(0))
	f.Add(int64(2), uint8(200), uint8(8), uint16(900), uint8(1), uint8(0))
	f.Add(int64(3), uint8(130), uint8(5), uint16(4000), uint8(2), uint8(0))
	f.Add(int64(4), uint8(1), uint8(2), uint16(1), uint8(1), uint8(0))
	f.Add(int64(5), uint8(90), uint8(1), uint16(0), uint8(1), uint8(0))
	f.Add(int64(6), uint8(17), uint8(2), uint16(4000), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels uint8, edges uint16, regime, scale uint8) {
		n, nl := ScaledUniverse(int(vertices), scale), 1+int(labels)%8
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
		limit := want.sparseMax
		scr := NewComposeScratch(n)
		for size := 1; size <= nl; size++ {
			fillChainRef(base, ops[:size])
			h.JoinInto(want, base, NewComposeScratch(n))
			got.Reset()
			got.AdoptShard(h.Rows().ComposeShard(got, ops[:size], scr, limit, 0, h.Rows().Len(), nil))
			assertBitIdentical(t, "through a label set", got, want)
			assertCounts(t, "through a label set", counted(h.Rows().ComposeShard(nil, ops[:size], scr, limit, 0, h.Rows().Len(), nil)), want)
			assertClean(t, "through a label set", scr)
		}
		assertSplits(t, "through a label set", got, want, h.Rows().Len(),
			func(dst *HybridRelation, lo, hi int) ([]int32, Count) {
				return h.Rows().ComposeShard(dst, ops, scr, limit, lo, hi, nil)
			})
	})
}

// FuzzComposeCSREquivalence pins a leaf's first step, a ∘ op with the rows
// of a read from its CSR, bit-identical to the chain it replaced —
// FillFromCSR(a), then ComposeInto — over the same regimes and universes, a
// dirty pooled destination and a vertex-range split at every position, the
// count form agreeing with the built one and with a promotion limit of its
// own.
func FuzzComposeCSREquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint16(200), uint16(150), uint8(0), uint8(0))
	f.Add(int64(2), uint8(200), uint16(3000), uint16(900), uint8(1), uint8(0))
	f.Add(int64(3), uint8(130), uint16(600), uint16(4000), uint8(2), uint8(0))
	f.Add(int64(4), uint8(1), uint16(1), uint16(1), uint8(1), uint8(0))
	f.Add(int64(5), uint8(90), uint16(0), uint16(500), uint8(1), uint8(0))
	f.Add(int64(6), uint8(0), uint16(8000), uint16(8000), uint8(1), uint8(1))
	f.Add(int64(7), uint8(255), uint16(6000), uint16(7000), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, vertices uint8, edgesA, edgesB uint16, regime, scale uint8) {
		n := ScaledUniverse(int(vertices), scale)
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a, op := RandomOperand(rng, n, int(edgesA)%8192), RandomOperand(rng, n, int(edgesB)%8192)
		ops := []CSROperand{op}
		density := regimes[regime%3]
		got, want := dirty(rng, n, density), NewHybrid(n, density)
		scr := NewComposeScratch(n)
		HybridFromCSR(a, density).ComposeInto(want, op, NewComposeScratch(n))
		got.Reset()
		srcs, c := a.Rows().ComposeShard(got, ops, scr, got.sparseMax, 0, a.Rows().Len(), nil)
		if got.AdoptShard(srcs, c); c.Pairs != want.Pairs() {
			t.Fatalf("first step returned %d pairs, want %d", c.Pairs, want.Pairs())
		}
		assertBitIdentical(t, "first step", got, want)
		assertClean(t, "first step", scr)
		assertSplits(t, "first step", got, want, a.Rows().Len(),
			func(dst *HybridRelation, lo, hi int) ([]int32, Count) {
				return a.Rows().ComposeShard(dst, ops, scr, got.sparseMax, lo, hi, nil)
			})
		assertClean(t, "first step shards", scr)
	})
}

// FuzzFusedStepEquivalence pins a step with its identity terms fused in
// (Extend) bit-identical to the chain it replaced — the step without them,
// then UnionWith of the right side for eps and of the left relation for
// skip — for both kernels and every combination of the terms, over a label
// set of up to eight operands, left relations with sparse, dense and empty
// rows, all three threshold regimes, universes of one to four summary
// words and a dirty pooled destination: built and counted over the whole
// range, one position at a time with the accumulator checked clean after
// each, and at every two-way split.
func FuzzFusedStepEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2), uint16(200), uint8(0), uint8(0))
	f.Add(int64(2), uint8(200), uint8(3), uint16(3000), uint8(1), uint8(0))
	f.Add(int64(3), uint8(130), uint8(1), uint16(4000), uint8(2), uint8(0))
	f.Add(int64(4), uint8(1), uint8(1), uint16(1), uint8(1), uint8(0))
	f.Add(int64(5), uint8(90), uint8(2), uint16(0), uint8(1), uint8(0))
	f.Add(int64(6), uint8(17), uint8(2), uint16(6000), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels uint8, edges uint16, regime, scale uint8) {
		n, nl := ScaledUniverse(int(vertices), scale), 1+int(labels)%8
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		ops := make([]CSROperand, nl)
		for l := range ops {
			ops[l] = RandomOperand(rng, n, rng.Intn(1+int(edges)%8192/nl))
		}
		density := regimes[regime%3]
		h := HybridFromCSR(RandomOperand(rng, n, rng.Intn(1+int(edges)%8192)), density)
		x, want, got := NewHybrid(n, density), NewHybrid(n, density), dirty(rng, n, density)
		fillChainRef(x, ops)
		limit := x.sparseMax
		scr := NewComposeScratch(n)
		kernels := map[string]func(r Rows, dst *HybridRelation, lo, hi int) ([]int32, Count){
			"compose": func(r Rows, dst *HybridRelation, lo, hi int) ([]int32, Count) {
				return r.ComposeShard(dst, ops, scr, limit, lo, hi, nil)
			},
			"join": func(r Rows, dst *HybridRelation, lo, hi int) ([]int32, Count) {
				return r.JoinShard(dst, x, scr, limit, lo, hi, nil)
			},
		}
		for name, step := range kernels {
			for _, terms := range [][2]bool{{true, false}, {false, true}, {true, true}} {
				eps, skip := terms[0], terms[1]
				ctx := fmt.Sprintf("%s eps=%t skip=%t", name, eps, skip)
				want.Reset()
				want.AdoptShard(step(h.Rows(), want, 0, h.Rows().Len()))
				if eps {
					want.UnionWith(x)
				}
				if skip {
					want.UnionWith(h)
				}
				r := h.Extend(eps, skip)
				got.Reset()
				got.AdoptShard(step(r, got, 0, r.Len()))
				assertBitIdentical(t, ctx, got, want)
				assertCounts(t, ctx, counted(step(r, nil, 0, r.Len())), want)
				assertClean(t, ctx, scr)
				got.Reset()
				for i := 0; i < r.Len(); i++ {
					got.AdoptShard(step(r, got, i, i+1))
					assertClean(t, ctx+" one row", scr)
				}
				assertBitIdentical(t, ctx+" row by row", got, want)
				assertSplits(t, ctx, got, want, r.Len(), func(dst *HybridRelation, lo, hi int) ([]int32, Count) {
					return step(r, dst, lo, hi)
				})
			}
		}
	})
}

// csrOf builds the operand whose row v is rows[v], ascending.
func csrOf(n int, rows map[int32][]int32) CSROperand {
	op := CSROperand{N: n, Offsets: make([]int32, n+1)}
	for v := range n {
		op.Targets = append(op.Targets, rows[int32(v)]...)
		op.Offsets[v+1] = int32(len(op.Targets))
	}
	return withActive(op)
}

// TestSummaryWordBoundaries pins the accumulator's summary where small
// universes never take it: at n = 3·4096 + 17 a scratch has four summary
// words, the last of them covering one partial accumulator word, and the
// rows below reach accumulator words 0, 63 and 64 — either side of the
// first summary-word boundary — 128 and 192, the last. One scratch runs
// every step in turn, so a word a drain or reset missed shows up in a later
// row. Compose (from a relation and from a CSR), join and a label-set base
// are built and counted into sparse, default and dense destinations,
// against relations assembled pair by pair.
func TestSummaryWordBoundaries(t *testing.T) {
	const n = 3*4096 + 17
	spread := []int32(nil) // one target in every accumulator word
	for wi := int32(0); wi*wordBits < n; wi++ {
		spread = append(spread, wi*wordBits+wi%wordBits)
	}
	opRows := map[int32][]int32{1: {0, 4095}, 2: {4096, n - 1}, 3: {63, 64, 4031, 8191, 8192}, 4: spread}
	leftRows := map[int32][]int32{0: {1, 2}, 4095: {3}, 4096: {4}, 9000: {2, 3}, n - 1: {1, 2, 3, 4}}
	composed := map[int32][]int32{}
	for s, ts := range leftRows {
		var us []int32
		for _, v := range ts {
			us = append(us, opRows[v]...)
		}
		slices.Sort(us)
		composed[s] = slices.Compact(us)
	}
	op, left := csrOf(n, opRows), csrOf(n, leftRows)
	// Rows 0, 1 and 4 meet in the base, so it scatters them.
	union := []CSROperand{op, left, csrOf(n, map[int32][]int32{0: {64, 4095}, 1: {4096}, 4: {1, 4096, n - 2}})}
	ops, h := []CSROperand{op}, HybridFromCSR(left, 1) // every left row scatters
	scr := NewComposeScratch(n)
	for _, density := range regimes {
		want, base, got := HybridFromCSR(csrOf(n, composed), density), NewHybrid(n, density), NewHybrid(n, density)
		limit := got.sparseMax
		h.ComposeInto(got, op, scr)
		assertBitIdentical(t, "compose", got, want)
		assertCounts(t, "compose", counted(h.Rows().ComposeShard(nil, ops, scr, limit, 0, h.Rows().Len(), nil)), want)
		got.Reset()
		got.AdoptShard(left.Rows().ComposeShard(got, ops, scr, limit, 0, len(leftRows), nil))
		assertBitIdentical(t, "first step", got, want)
		assertCounts(t, "first step", counted(left.Rows().ComposeShard(nil, ops, scr, limit, 0, len(leftRows), nil)), want)
		for _, rd := range regimes {
			r := HybridFromCSR(op, rd)
			h.JoinInto(got, r, scr)
			assertBitIdentical(t, "join", got, want)
			assertCounts(t, "join", counted(h.Rows().JoinShard(nil, r, scr, limit, 0, h.Rows().Len(), nil)), want)
		}
		fillChainRef(base, union)
		assertCounts(t, "base", UnionCSR(got, union, scr, limit), base)
		assertBitIdentical(t, "base", got, base)
		assertCounts(t, "base", UnionCSR(nil, union, scr, limit), base)
		assertClean(t, "every step", scr)
	}
}

// TestStepPreconditions pins what every step kernel refuses: a destination
// over another universe or with another promotion limit than the step's —
// the limit its Count measures rows at — and, for the two whose left side
// is a relation, a destination that is one of the step's inputs; UnionCSR
// also refuses operands over different universes, counted or built.
func TestStepPreconditions(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(15))
	op := RandomOperand(rng, n, 40)
	ops := []CSROperand{op}
	h, r := HybridFromCSR(op, 0.5), HybridFromCSR(op, 0.5)
	limit := h.sparseMax
	scr := NewComposeScratch(n)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	for name, step := range map[string]func(dst *HybridRelation){
		"compose": func(dst *HybridRelation) { h.Rows().ComposeShard(dst, ops, scr, limit, 0, h.Rows().Len(), nil) },
		"first":   func(dst *HybridRelation) { op.Rows().ComposeShard(dst, ops, scr, limit, 0, op.Rows().Len(), nil) },
		"join":    func(dst *HybridRelation) { h.Rows().JoinShard(dst, r, scr, limit, 0, h.Rows().Len(), nil) },
		"union":   func(dst *HybridRelation) { UnionCSR(dst, ops, scr, limit) },
	} {
		expectPanic(name+": other promotion limit", func() { step(NewHybrid(n, 1)) })
		expectPanic(name+": other universe", func() { step(NewHybrid(n+1, 0.5)) })
		step(NewHybrid(n, 0.5)) // the step's own regime is accepted
		step(nil)
	}
	expectPanic("compose: dst == left", func() { h.Rows().ComposeShard(h, ops, scr, limit, 0, h.Rows().Len(), nil) })
	expectPanic("join: dst == left", func() { h.Rows().JoinShard(h, r, scr, limit, 0, h.Rows().Len(), nil) })
	expectPanic("join: dst == right", func() { h.Rows().JoinShard(r, r, scr, limit, 0, h.Rows().Len(), nil) })
	mixed := []CSROperand{op, RandomOperand(rng, n+1, 40)}
	expectPanic("union: operand universes, counted", func() { UnionCSR(nil, mixed, scr, limit) })
	expectPanic("union: operand universes, built", func() { UnionCSR(NewHybrid(n, 0.5), mixed, scr, limit) })
}

// TestPushIgnoresLeftForm pins that a compose step's output does not depend
// on the form its left rows are held in: one relation, held with every row
// sparse, at the default threshold and with every row dense, composes
// through one label and through two — plain and with each identity term —
// into bit-identical destinations at one promotion limit, with equal
// Counts and a clean accumulator, across two summary words.
func TestPushIgnoresLeftForm(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	n := ScaledUniverse(300, 1)
	left := RandomOperand(rng, n, 12*n)
	ops := []CSROperand{RandomOperand(rng, n, 12*n), RandomOperand(rng, n, 2*n)}
	scr := NewComposeScratch(n)
	for size := 1; size <= len(ops); size++ {
		for _, terms := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			eps, skip := terms[0], terms[1]
			var want *HybridRelation
			for _, density := range regimes {
				h := HybridFromCSR(left, density)
				ctx := fmt.Sprintf("%d operands eps=%t skip=%t left density %v", size, eps, skip, density)
				got := NewHybrid(n, 0)
				r := h.Extend(eps, skip)
				got.AdoptShard(r.ComposeShard(got, ops[:size], scr, got.sparseMax, 0, r.Len(), nil))
				assertClean(t, ctx, scr)
				assertCounts(t, ctx, counted(r.ComposeShard(nil, ops[:size], scr, got.sparseMax, 0, r.Len(), nil)), got)
				if want == nil {
					want = got
					continue
				}
				assertBitIdentical(t, ctx, got, want)
			}
		}
	}
}
