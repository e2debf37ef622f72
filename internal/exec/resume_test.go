package exec

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/relcache"
)

// A fold prefix is a segment: these tests pin that adopting R_i from the
// cache and folding on from block i+1 is indistinguishable — in the
// relation, its representation, the answer and the budget boundary — from
// having built R_i, for every prefix of every fold shape.

// identical reports whether two relations are the same structure, not just
// the same pair set: pairs in the same active-source order, and every row
// in the same form.
func identical(a, b *bitset.HybridRelation) bool {
	if oracle.Universe(a) != oracle.Universe(b) || a.Pairs() != b.Pairs() || a.Sources() != b.Sources() {
		return false
	}
	var pa, pb [][2]int
	a.ForEachPair(func(s, t int) bool { pa = append(pa, [2]int{s, t}); return true })
	b.ForEachPair(func(s, t int) bool { pb = append(pb, [2]int{s, t}); return true })
	if !slices.Equal(pa, pb) {
		return false
	}
	for v := 0; v < oracle.Universe(a); v++ {
		if a.RowDense(v) != b.RowDense(v) || a.RowCount(v) != b.RowCount(v) {
			return false
		}
	}
	return true
}

// denseUnion is the answer by the dense reference stack alone: the union of
// internal/oracle's relation of every non-empty concrete path d expands to.
func denseUnion(t *testing.T, g *graph.CSR, d *RPQDag) *oracle.Relation {
	t.Helper()
	exps, ok := d.Expansions(100000)
	if !ok {
		t.Fatalf("dag %s: expansion overflow", d.Describe())
	}
	out := oracle.NewRelation(g.NumVertices())
	for _, p := range exps {
		if len(p) == 0 {
			continue // an all-skippable prefix: the fold's R_i leaves the identity out
		}
		oracle.EvaluateDense(g, p).ForEachRow(func(s int, targets *oracle.Set) bool {
			targets.ForEach(func(v int) bool { out.Add(s, v); return true })
			return true
		})
	}
	return out
}

// prefixRelation builds R_i — the relation of the plan's first i+1 blocks —
// without the fold: from the dense reference's union, as a hybrid relation
// in the executing regime.
func prefixRelation(t *testing.T, g *graph.CSR, d *RPQDag, dp *DagPlan, i int) *bitset.HybridRelation {
	t.Helper()
	dense := denseUnion(t, g, &RPQDag{Elems: d.Elems[:dp.Blocks[i].Hi]})
	n := g.NumVertices()
	op := bitset.CSROperand{N: n, Offsets: make([]int32, n+1)}
	for s := 0; s < n; s++ {
		if row := dense.Row(s); row != nil {
			row.ForEach(func(v int) bool { op.Targets = append(op.Targets, int32(v)); return true })
		}
		op.Offsets[s+1] = int32(len(op.Targets))
	}
	return bitset.HybridFromCSR(op, 0)
}

// resumeShapes are the fold shapes a resumed execution has to get right,
// over a three-label vocabulary.
func resumeShapes() map[string]*RPQDag {
	label := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	opt := func(ls ...int) RPQElem { return RPQElem{Labels: ls, MinRep: 0, MaxRep: 1} }
	alt := func(ls ...int) RPQElem { return RPQElem{Labels: ls, MinRep: 1, MaxRep: 1} }
	rep := func(lo, hi int, ls ...int) RPQElem { return RPQElem{Labels: ls, MinRep: lo, MaxRep: hi} }
	return map[string]*RPQDag{
		// A run of two labels after an element: built by its own tree, joined.
		"run-after-elem": {Elems: []RPQElem{alt(0, 1), label(2), label(0)}},
		// Operand blocks: an alternation and a one-label run composed through.
		"operands": {Elems: []RPQElem{label(0), label(1), alt(0, 2), label(1)}},
		// An unrolled element after a prefix, skippable and not.
		"unrolled-skippable": {Elems: []RPQElem{alt(0, 2), rep(0, 2, 1)}},
		"unrolled":           {Elems: []RPQElem{label(0), label(1), rep(1, 2, 1, 2), label(2)}},
		// All-skippable prefixes: eps is still on after the adopted prefix,
		// so the next block's relation is a term of the result and must be
		// built and joined, not composed through.
		"skippable-prefix-run":  {Elems: []RPQElem{opt(0), opt(1), label(2)}},
		"skippable-prefix-elem": {Elems: []RPQElem{opt(0), alt(1, 2)}},
		// Four blocks, every kind of step.
		"four": {Elems: []RPQElem{alt(0, 1), opt(2), rep(2, 2, 1), label(0)}},
	}
}

// TestFoldResumesFromEveryPrefix seeds a cache with exactly one prefix's
// relation — built by the dense reference, not by the fold — and nothing
// else, for every prefix of every shape, and requires the execution that
// adopts it to return the uncached run's relation bit for bit, the dense
// reference's answer, and the uncached run's later intermediates.
func TestFoldResumesFromEveryPrefix(t *testing.T) {
	g := testGraph(t)
	for name, d := range resumeShapes() {
		dp := zeroPlan(g, d)
		nb := len(dp.Blocks)
		if nb < 2 || nb > 4 {
			t.Fatalf("%s: %d blocks, want 2–4", name, nb)
		}
		want, wantSt, err := Run(g, dp, Options{KeepResult: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if answer := denseUnion(t, g, d); !oracle.EqualRelation(want, answer) {
			t.Fatalf("%s: the uncached run differs from the dense reference", name)
		}
		key, ends := dp.prefixKeys(nil, nil)
		for i := range dp.Blocks {
			for _, workers := range []int{1, 4} {
				cache := relcache.New(relcache.Options{})
				cache.PutKey(key[:ends[i]], prefixRelation(t, g, d, dp, i))
				got, st, err := Run(g, dp, Options{Workers: workers, Cache: cache, KeepResult: true})
				if err != nil {
					t.Fatalf("%s prefix %d workers %d: %v", name, i, workers, err)
				}
				if !identical(got, want) {
					t.Fatalf("%s prefix %d workers %d: resumed relation is not the uncached run's", name, i, workers)
				}
				if st.Result != wantSt.Result {
					t.Fatalf("%s prefix %d workers %d: result %d, want %d", name, i, workers, st.Result, wantSt.Result)
				}
				// Block 0 alone is adopted by its own node, where it has a
				// key: a single label's relation, a? included, is never cached.
				b0 := &dp.Blocks[0]
				adoptable := i > 0 || len(b0.Run) > 1 || (b0.Run == nil && (len(b0.Elem.Labels) > 1 || b0.Elem.MaxRep > 1))
				switch {
				case adoptable && st.CacheHits != 1:
					t.Fatalf("%s prefix %d workers %d: %d hits, want the seeded prefix adopted once", name, i, workers, st.CacheHits)
				case i == nb-1 && (len(st.Intermediates) != 0 || st.Work != 0 || st.CacheMisses != 0):
					t.Fatalf("%s workers %d: whole-query hit reports %+v, want no intermediates, no work, no publish", name, workers, st)
				case i > 0 && !slices.Equal(st.Intermediates, wantSt.Intermediates[len(wantSt.Intermediates)-len(st.Intermediates):]):
					t.Fatalf("%s prefix %d workers %d: intermediates %v are not the tail of the uncached run's %v",
						name, i, workers, st.Intermediates, wantSt.Intermediates)
				case i > 0 && st.CacheMisses < nb-1-i:
					t.Fatalf("%s prefix %d workers %d: %d publishes, want at least one per block boundary after the prefix (%d)",
						name, i, workers, st.CacheMisses, nb-1-i)
				}
				// Everything after the prefix was published on the way:
				// the repeat is a whole-query hit.
				if _, again, err := Run(g, dp, Options{Workers: workers, Cache: cache}); err != nil ||
					again.CacheHits != 1 || len(again.Intermediates) != 0 || again.Result != wantSt.Result {
					t.Fatalf("%s prefix %d workers %d: repeat reports %+v (err %v), want one hit and %d", name, i, workers, again, err, wantSt.Result)
				}
			}
		}
	}
}

// TestBudgetBoundaryIsTheSameAdopted pins how an adopted prefix is priced:
// */* is the largest relation */*/a works on, so the smallest
// MaxResultBytes the query survives is that relation's clone size whether
// the fold builds it (no cache) or adopts it (a cache holding only it) —
// result kept or counted.
func TestBudgetBoundaryIsTheSameAdopted(t *testing.T) {
	g := randomGraph(7, 400, 2, 6000)
	all := RPQElem{Labels: []int{0, 1}, MinRep: 1, MaxRep: 1}
	d := &RPQDag{Elems: []RPQElem{all, all, {Labels: []int{0}, MinRep: 1, MaxRep: 1}}}
	dp := zeroPlan(g, d)
	key, ends := dp.prefixKeys(nil, nil)
	prefix, _, err := Run(g, zeroPlan(g, &RPQDag{Elems: d.Elems[:2]}), Options{KeepResult: true})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(prefix.CloneMemSize())
	for _, adopted := range []bool{false, true} {
		for _, keep := range []bool{true, false} {
			for _, budget := range []int64{size - 1, size} {
				opt, pool, _ := checkedOptions(g.NumVertices(), 2)
				opt.KeepResult, opt.MaxResultBytes = keep, budget
				if adopted {
					opt.Cache = relcache.New(relcache.Options{})
					opt.Cache.PutKey(key[:ends[1]], prefix)
				}
				rel, st, err := Run(g, dp, opt)
				ctx := fmt.Sprintf("adopted=%t keep=%t budget=%d of %d", adopted, keep, budget, size)
				if budget < size && (rel != nil || !errors.Is(err, ErrBudgetExceeded)) {
					t.Errorf("%s: relation=%t err=%v, want ErrBudgetExceeded", ctx, rel != nil, err)
				}
				if budget == size && (err != nil || (adopted && st.CacheHits != 1)) {
					t.Errorf("%s: err=%v hits=%d, want a survivor that adopted the prefix", ctx, err, st.CacheHits)
				}
				pool.Put(rel)
				if n := pool.InUse(); n != 0 {
					t.Errorf("%s: %d pooled relations leaked", ctx, n)
				}
			}
		}
	}
}
