package bitset_test

import (
	"math/rand"
	"testing"

	. "repro/internal/bitset"
	"repro/internal/oracle"
)

// randomHybridAndDense builds the same random relation in both
// representations.
func randomHybridAndDense(rng *rand.Rand, n int, pairs int, density float64) (*HybridRelation, *oracle.Relation) {
	h, ps := RandomHybrid(rng, n, pairs, density)
	r := oracle.NewRelation(n)
	for _, p := range ps {
		r.Add(p[0], p[1])
	}
	return h, r
}

func TestHybridReverseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		pairs := rng.Intn(4 * n)
		density := []float64{0, 1e-9, 0.1, 1.0}[trial%4]
		h, r := randomHybridAndDense(rng, n, pairs, density)
		rev, back := NewHybrid(n, density), NewHybrid(n, density)
		h.ReverseInto(rev)
		if !oracle.EqualRelation(rev, r.Reverse()) {
			t.Fatalf("trial %d (n=%d density=%v): hybrid reverse differs from dense", trial, n, density)
		}
		// Round trip returns the original.
		if rev.ReverseInto(back); !oracle.EqualRelation(back, r) {
			t.Fatalf("trial %d: double reverse is not the identity", trial)
		}
	}
}

func TestHybridReverseIntoReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 80
	dst := NewHybrid(n, 0)
	for trial := 0; trial < 10; trial++ {
		h, r := randomHybridAndDense(rng, n, rng.Intn(300), 0)
		h.ReverseInto(dst) // same dst every time: rows must fully reset
		if !oracle.EqualRelation(dst, r.Reverse()) {
			t.Fatalf("trial %d: pooled ReverseInto differs from dense reverse", trial)
		}
	}
}

func TestHybridReversePanics(t *testing.T) {
	h := NewHybrid(4, 0)
	for name, fn := range map[string]func(){
		"aliased dst":       func() { h.ReverseInto(h) },
		"universe mismatch": func() { h.ReverseInto(NewHybrid(5, 0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHybridUnionWithMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		// Mixed thresholds force every union case: sparse∪sparse (with and
		// without promotion), sparse∪dense, dense∪sparse, dense∪dense.
		da := []float64{0, 1e-9, 0.05, 1.0}[trial%4]
		db := []float64{0.05, 1.0, 0, 1e-9}[trial%4]
		a, ra := randomHybridAndDense(rng, n, rng.Intn(3*n), da)
		b, rb := randomHybridAndDense(rng, n, rng.Intn(3*n), db)
		a.UnionWith(b)
		want := oracle.NewRelation(n)
		for _, r := range []*oracle.Relation{ra, rb} {
			r.ForEachRow(func(s int, targets *oracle.Set) bool {
				targets.ForEach(func(t int) bool {
					want.Add(s, t)
					return true
				})
				return true
			})
		}
		if !oracle.EqualRelation(a, want) {
			t.Fatalf("trial %d (n=%d): hybrid union differs from dense union", trial, n)
		}
		// b must be untouched.
		if !oracle.EqualRelation(b, rb) {
			t.Fatalf("trial %d: UnionWith mutated its argument", trial)
		}
		// Active list must stay ascending: ForEachPair asserts order below.
		last := -1
		ordered := true
		a.ForEachPair(func(s, tgt int) bool {
			key := s*n + tgt
			if key <= last {
				ordered = false
			}
			last = key
			return ordered
		})
		if !ordered {
			t.Fatalf("trial %d: ForEachPair out of order after union", trial)
		}
	}
}

func TestHybridUnionWithSelfAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, r := randomHybridAndDense(rng, 50, 120, 0)
	before := h.Pairs()
	h.UnionWith(h) // no-op by definition
	if h.Pairs() != before || !oracle.EqualRelation(h, r) {
		t.Fatal("self-union changed the relation")
	}
	h.UnionWith(NewHybrid(50, 0)) // empty argument is a no-op
	if !oracle.EqualRelation(h, r) {
		t.Fatal("union with empty changed the relation")
	}
	empty := NewHybrid(50, 0)
	empty.UnionWith(h)
	if !oracle.EqualRelation(empty, r) {
		t.Fatal("union into empty should copy")
	}
}

func TestHybridUnionWithPanicsOnUniverseMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("universe mismatch should panic")
		}
	}()
	NewHybrid(4, 0).UnionWith(NewHybrid(5, 0))
}
