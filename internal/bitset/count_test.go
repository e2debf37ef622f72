package bitset

import (
	"math/rand"
	"testing"
)

// assertCounts fails unless the count describes exactly the relation a
// built step produced: same pairs, same sources, same clone size.
func assertCounts(t *testing.T, ctx string, got Count, want *HybridRelation) {
	t.Helper()
	if got.Pairs != want.Pairs() || got.Sources != want.Rows().Len() ||
		got.CloneMemSize(want.n) != want.CloneMemSize() {
		t.Fatalf("%s: counted pairs/sources/bytes %d/%d/%d, built %d/%d/%d", ctx,
			got.Pairs, got.Sources, got.CloneMemSize(want.n),
			want.Pairs(), want.Rows().Len(), want.CloneMemSize())
	}
}

// assertShardCounts checks that every two-way split of the active list —
// every (1 + nact/256)-th from 256 sources on — and one ns-way split add up
// to the whole relation's count — counted, and built into a destination at
// the relation's regime, whose shards' Counts must add up to it too.
func assertShardCounts(t *testing.T, ctx string, nact, ns int, want *HybridRelation,
	shard func(dst *HybridRelation, lo, hi int) ([]int32, Count)) {
	t.Helper()
	dst := &HybridRelation{n: want.n, sparseMax: want.sparseMax, rows: make([]hrow, want.n)}
	split := func(ctx string, bounds []int) {
		t.Helper()
		dst.Reset()
		var built, c Count
		for i := 0; i+1 < len(bounds); i++ {
			c.Add(counted(shard(nil, bounds[i], bounds[i+1])))
			srcs, bc := shard(dst, bounds[i], bounds[i+1])
			dst.AdoptShard(srcs, bc)
			built.Add(bc)
		}
		assertCounts(t, ctx, c, want)
		assertCounts(t, ctx+" built", built, want)
	}
	for cut := 0; cut <= nact; cut += 1 + nact/256 {
		split(ctx+" two-way split", []int{0, cut, nact})
	}
	bounds := make([]int, ns+1)
	for i := range bounds {
		bounds[i] = i * nact / ns
	}
	split(ctx+" n-way split", bounds)
}

// FuzzCountEquivalence fuzzes the operands' shapes, the promotion
// thresholds from all-sparse to all-dense, universes of one to four summary
// words, and the shard decomposition, asserting that the step kernels,
// given no destination, report exactly what they build given one —
// Pairs(), Sources() and CloneMemSize() — whole and over every shard split,
// that they leave the scratch clean, and that a raised cancel flag stops
// them at the first poll.
func FuzzCountEquivalence(f *testing.F) {
	f.Add(int64(1), 40, 120, 90, float64(0), float64(1), uint8(3), uint8(0))
	f.Add(int64(2), 8, 20, 300, float64(1e-9), float64(0), uint8(1), uint8(0))
	f.Add(int64(3), 100, 400, 50, float64(0.1), float64(1e-9), uint8(6), uint8(0))
	f.Add(int64(4), 130, 900, 900, float64(1), float64(1), uint8(7), uint8(0))
	f.Add(int64(5), 64, 700, 700, float64(1e-9), float64(1e-9), uint8(4), uint8(0))
	f.Add(int64(6), 17, 1000, 1000, float64(1), float64(0), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, pairsA, pairsB int, da, db float64, shards, scale uint8) {
		if n < 1 || n > 200 || pairsA < 0 || pairsA > 1000 || pairsB < 0 || pairsB > 1000 ||
			da < 0 || da > 1 || db < 0 || db > 1 {
			t.Skip()
		}
		n = ScaledUniverse(n, scale)
		rng := rand.New(rand.NewSource(seed))
		h, _ := RandomHybrid(rng, n, pairsA, da)
		r, _ := RandomHybrid(rng, n, pairsB, db)
		op := RandomOperand(rng, n, pairsB)
		scr := NewComposeScratch(n)
		nact, ns := h.Rows().Len(), int(shards%8)+1
		compose := func(dst *HybridRelation, lo, hi int) ([]int32, Count) {
			return h.Rows().ComposeShard(dst, []CSROperand{op}, scr, h.sparseMax, lo, hi, nil)
		}
		join := func(dst *HybridRelation, lo, hi int) ([]int32, Count) {
			return h.Rows().JoinShard(dst, r, scr, h.sparseMax, lo, hi, nil)
		}

		want := NewHybrid(n, da)
		h.ComposeInto(want, op, scr)
		assertCounts(t, "compose", counted(compose(nil, 0, nact)), want)
		assertShardCounts(t, "compose", nact, ns, want, compose)

		h.JoinInto(want, r, scr)
		assertCounts(t, "join", counted(join(nil, 0, nact)), want)
		assertShardCounts(t, "join", nact, ns, want, join)
		h.JoinInto(want, h, scr)
		assertCounts(t, "self-join", counted(h.Rows().JoinShard(nil, h, scr, h.sparseMax, 0, nact, nil)), want)

		// Counted steps leave the scratch as clean as they found it: a
		// built step run after them still builds the same rows.
		assertClean(t, "counted", scr)
		again := NewHybrid(n, da)
		h.ComposeInto(again, op, scr)
		h.ComposeInto(want, op, NewComposeScratch(n))
		assertIdentical(t, "compose after counts", again, want)

		// A flag raised before the call is seen at the first row's poll.
		var flag CancelFlag
		flag.Set()
		scr.SetCancel(&flag)
		if c := counted(compose(nil, 0, nact)); c.Sources > 1 {
			t.Fatalf("cancelled compose count ran on to %d sources", c.Sources)
		}
		scr.SetCancel(&flag)
		if c := counted(join(nil, 0, nact)); c.Sources > 1 {
			t.Fatalf("cancelled join count ran on to %d sources", c.Sources)
		}
	})
}

// TestCountCancelWithinOneWindow pins the abort latency of the count
// kernels mid-run: a flag raised while a poll window is open is seen no
// later than one window's worth of rows on.
func TestCountCancelWithinOneWindow(t *testing.T) {
	// 3·cancelCheckInterval single-target rows: each charges the minimum
	// weight of 1, so a window is exactly cancelCheckInterval rows.
	n := 3 * cancelCheckInterval
	op := CSROperand{N: n, Offsets: make([]int32, n+1), Targets: make([]int32, n)}
	for v := 0; v < n; v++ {
		op.Offsets[v+1] = int32(v + 1)
		op.Targets[v] = int32((v + 1) % n)
	}
	h, ops := HybridFromCSR(op, 1), []CSROperand{op}
	for name, count := range map[string]func(*ComposeScratch) Count{
		"compose": func(scr *ComposeScratch) Count { return counted(h.Rows().ComposeShard(nil, ops, scr, n, 0, n, nil)) },
		"join":    func(scr *ComposeScratch) Count { return counted(h.Rows().JoinShard(nil, h, scr, n, 0, n, nil)) },
	} {
		scr := NewComposeScratch(n)
		var flag CancelFlag
		scr.SetCancel(&flag)
		if c := count(scr); c.Sources != n || c.Pairs != int64(n) {
			t.Fatalf("%s: uncancelled count %+v, want %d rows of one pair", name, c, n)
		}
		// The full run above left a window open; the raised flag must be
		// seen by the time what remains of it is used up.
		flag.Set()
		if c := count(scr); c.Sources > cancelCheckInterval {
			t.Fatalf("%s: cancelled count ran %d rows, more than one poll window", name, c.Sources)
		}
	}
}

// TestComposeThroughCancelWithinOneWindow pins the same abort latency for
// the kernels that read a label from the graph — a step through a label
// set and a leaf's first step, built and counted, and the counted base.
func TestComposeThroughCancelWithinOneWindow(t *testing.T) {
	// The single-target rows of TestCountCancelWithinOneWindow, under two
	// labels that agree, so a window is again cancelCheckInterval rows.
	n := 3 * cancelCheckInterval
	op := CSROperand{N: n, Offsets: make([]int32, n+1), Targets: make([]int32, n)}
	for v := 0; v < n; v++ {
		op.Offsets[v+1] = int32(v + 1)
		op.Targets[v] = int32((v + 1) % n)
	}
	op = withActive(op)
	ops := []CSROperand{op, op}
	h, dst := HybridFromCSR(op, 1), NewHybrid(n, 1)
	built := func(srcs []int32, c Count) Count { return Count{Sources: len(srcs), Pairs: c.Pairs} }
	rel, csr := h.Rows(), op.Rows()
	for name, run := range map[string]func(*ComposeScratch) Count{
		"through":         func(scr *ComposeScratch) Count { return built(rel.ComposeShard(dst, ops, scr, n, 0, n, nil)) },
		"through counted": func(scr *ComposeScratch) Count { return counted(rel.ComposeShard(nil, ops, scr, n, 0, n, nil)) },
		"first":           func(scr *ComposeScratch) Count { return built(csr.ComposeShard(dst, ops[:1], scr, n, 0, n, nil)) },
		"first counted":   func(scr *ComposeScratch) Count { return counted(csr.ComposeShard(nil, ops[:1], scr, n, 0, n, nil)) },
		"base counted":    func(scr *ComposeScratch) Count { return UnionCSR(nil, ops, scr, n) },
	} {
		scr := NewComposeScratch(n)
		var flag CancelFlag
		scr.SetCancel(&flag)
		dst.Reset()
		if c := run(scr); c.Sources != n || c.Pairs != int64(n) {
			t.Fatalf("%s: uncancelled run %+v, want %d rows of one pair", name, c, n)
		}
		flag.Set()
		dst.Reset()
		if c := run(scr); c.Sources > cancelCheckInterval {
			t.Fatalf("%s: cancelled run went on for %d rows, more than one poll window", name, c.Sources)
		}
	}
}

// TestUnionFillCancelWithinOneWindow pins the same abort latency for the
// one-pass base: UnionCSR charges each emitted row to the poll window
// like every other row kernel, whether the row was copied from one operand
// or accumulated from several, so a wildcard base over a large graph stops
// within one window of the flag instead of running every label through.
func TestUnionFillCancelWithinOneWindow(t *testing.T) {
	// Single-target rows again, so a window is cancelCheckInterval rows;
	// the second operand reaches every other vertex, alternating copied and
	// accumulated rows.
	n := 3 * cancelCheckInterval
	ops := []CSROperand{
		{N: n, Offsets: make([]int32, n+1), Targets: make([]int32, n)},
		{N: n, Offsets: make([]int32, n+1)},
	}
	for v := 0; v < n; v++ {
		ops[0].Offsets[v+1] = int32(v + 1)
		ops[0].Targets[v] = int32((v + 1) % n)
		ops[1].Offsets[v+1] = ops[1].Offsets[v]
		if v%2 == 0 {
			ops[1].Targets = append(ops[1].Targets, int32((v+1)%n))
			ops[1].Offsets[v+1]++
		}
	}
	h := NewHybrid(n, 1)
	scr := NewComposeScratch(n)
	var flag CancelFlag
	scr.SetCancel(&flag)
	if UnionCSR(h, ops, scr, h.sparseMax); h.Rows().Len() != n || h.Pairs() != int64(n) {
		t.Fatalf("uncancelled fill: %d sources, %d pairs, want %d rows of one pair", h.Rows().Len(), h.Pairs(), n)
	}
	flag.Set()
	if UnionCSR(h, ops, scr, h.sparseMax); h.Rows().Len() > cancelCheckInterval {
		t.Fatalf("cancelled fill ran %d rows, more than one poll window", h.Rows().Len())
	}
	assertClean(t, "cancelled fill", scr)
}
