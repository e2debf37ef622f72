package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// fillChainRef is the reference UnionCSR replaced, kept verbatim: the
// one-label fill loop into h, then each further label filled into a
// staging relation and unioned in.
func fillChainRef(h *HybridRelation, ops []CSROperand) {
	fill := func(h *HybridRelation, op CSROperand) {
		h.Reset()
		for v := 0; v < op.N; v++ {
			ts := op.Targets[op.Offsets[v]:op.Offsets[v+1]]
			if len(ts) == 0 {
				continue
			}
			row := &h.rows[v]
			row.count = int32(len(ts))
			if len(ts) <= h.sparseMax {
				row.ids = append(row.ids[:0], ts...)
			} else {
				row.dense = true
				if row.words == nil {
					row.words = make([]uint64, (op.N+wordBits-1)/wordBits)
				} else {
					clear(row.words)
				}
				for _, t := range ts {
					row.words[t>>6] |= 1 << (uint(t) & 63)
				}
			}
			h.active = append(h.active, int32(v))
			h.pairs += int64(len(ts))
		}
	}
	fill(h, ops[0])
	tmp := &HybridRelation{n: h.n, sparseMax: h.sparseMax, rows: make([]hrow, h.n)}
	for _, op := range ops[1:] {
		fill(tmp, op)
		h.UnionWith(tmp)
	}
}

// assertBitIdentical fails unless got equals want in everything a later
// kernel, the cache or the budget can observe: aggregates, the active
// list in order, and every row's count, form and content — with the
// storage behind each row at least as large as what it holds.
func assertBitIdentical(t *testing.T, ctx string, got, want *HybridRelation) {
	t.Helper()
	if got.pairs != want.pairs || !slices.Equal(got.active, want.active) {
		t.Fatalf("%s: %d pairs over sources %v, want %d over %v", ctx, got.pairs, got.active, want.pairs, want.active)
	}
	if got.CloneMemSize() != want.CloneMemSize() {
		t.Fatalf("%s: clone size %d, want %d", ctx, got.CloneMemSize(), want.CloneMemSize())
	}
	for v := range want.rows {
		g, w := &got.rows[v], &want.rows[v]
		if g.count != w.count || g.dense != w.dense {
			t.Fatalf("%s: row %d is count %d dense %t, want %d %t", ctx, v, g.count, g.dense, w.count, w.dense)
		}
		switch {
		case w.count == 0:
		case w.dense:
			if !slices.Equal(g.words, w.words) {
				t.Fatalf("%s: dense row %d differs", ctx, v)
			}
		default:
			if !slices.Equal(g.ids, w.ids) || cap(g.ids) < len(w.ids) {
				t.Fatalf("%s: sparse row %d = %v (cap %d), want %v", ctx, v, g.ids, cap(g.ids), w.ids)
			}
		}
	}
}

// FuzzUnionFillEquivalence pins the one-pass base bit-identical to the
// chain it replaced — a fill from the first label and a UnionWith per
// further label — for label sets of every size, operands with empty rows
// and with no edges at all, all three threshold regimes, and a pooled
// destination still dirty from another relation — and its count form to
// what it builds.
func FuzzUnionFillEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint16(200), uint8(0))
	f.Add(int64(2), uint8(200), uint8(8), uint16(900), uint8(1))
	f.Add(int64(3), uint8(130), uint8(5), uint16(4000), uint8(2))
	f.Add(int64(4), uint8(1), uint8(2), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels uint8, edges uint16, regime uint8) {
		n, nl := int(vertices), 1+int(labels)%8
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		ops := make([]CSROperand, nl)
		for l := range ops {
			// A label in four has no edges; the rest split the budget
			// unevenly, so most vertices are missing from some operand.
			m := 0
			if rng.Intn(4) > 0 {
				m = rng.Intn(1 + int(edges)%4096/nl)
			}
			ops[l] = RandomOperand(rng, n, m)
		}
		density := []float64{1, 0, 1e-9}[regime%3] // all sparse, default, all dense
		got := HybridFromCSR(RandomOperand(rng, n, rng.Intn(1+8*n)), density)
		scr := NewComposeScratch(n)
		for size := 1; size <= nl; size++ {
			want := NewHybrid(n, density)
			fillChainRef(want, ops[:size])
			// got is dirty on every round: from the unrelated relation
			// first, then from the previous label set.
			built := UnionCSR(got, ops[:size], scr, got.sparseMax)
			assertBitIdentical(t, "union fill", got, want)
			assertCounts(t, "union fill", built, want)
			assertCounts(t, "union count", UnionCSR(nil, ops[:size], scr, got.sparseMax), want)
			assertClean(t, "union fill", scr)
		}
	})
}

// TestUnionWithKeepsActiveAscending pins the ascending-source invariant
// UnionWith restores by merging the sources it appended: wherever the new
// sources fall relative to the receiver's, the active list is what
// sorting it would give.
func TestUnionWithKeepsActiveAscending(t *testing.T) {
	const n = 64
	rel := func(sources []int32) *HybridRelation {
		op := CSROperand{N: n, Offsets: make([]int32, n+1)}
		for v := int32(0); v < n; v++ {
			op.Offsets[v+1] = op.Offsets[v]
			if slices.Contains(sources, v) {
				op.Targets = append(op.Targets, v)
				op.Offsets[v+1]++
			}
		}
		return HybridFromCSR(op, 0)
	}
	for name, c := range map[string]struct{ into, from []int32 }{
		"all before":     {[]int32{40, 41, 50}, []int32{1, 2, 3}},
		"all after":      {[]int32{1, 2, 3}, []int32{40, 41, 50}},
		"interleaved":    {[]int32{2, 10, 11, 30, 63}, []int32{0, 5, 10, 12, 29, 31, 62}},
		"none new":       {[]int32{2, 10, 30}, []int32{10, 30}},
		"empty receiver": {nil, []int32{7, 8, 60}},
		"empty argument": {[]int32{7, 8, 60}, nil},
	} {
		h := rel(c.into)
		h.UnionWith(rel(c.from))
		want := slices.Concat(c.into, c.from)
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal(h.active, want) || h.Pairs() != int64(len(want)) {
			t.Errorf("%s: active %v with %d pairs, want %v", name, h.active, h.Pairs(), want)
		}
	}
}
