package oracle

import (
	"math/rand"
	"testing"
)

func TestRelationBasics(t *testing.T) {
	r := NewRelation(10)
	if r.Universe() != 10 {
		t.Fatalf("Universe() = %d", r.Universe())
	}
	if r.Pairs() != 0 || r.Sources() != 0 {
		t.Fatal("new relation should be empty")
	}
	r.Add(1, 2)
	r.Add(1, 3)
	r.Add(4, 2)
	if !r.Contains(1, 2) || !r.Contains(4, 2) || r.Contains(2, 1) {
		t.Fatal("Contains wrong")
	}
	if r.Pairs() != 3 {
		t.Fatalf("Pairs() = %d, want 3", r.Pairs())
	}
	if r.Sources() != 2 {
		t.Fatalf("Sources() = %d, want 2", r.Sources())
	}
	if r.Row(0) != nil {
		t.Fatal("Row(0) should be nil")
	}
	if r.Row(1).Count() != 2 {
		t.Fatal("Row(1) should have 2 targets")
	}
}

func TestRelationAddDuplicate(t *testing.T) {
	r := NewRelation(5)
	r.Add(0, 1)
	r.Add(0, 1)
	if r.Pairs() != 1 {
		t.Fatalf("Pairs() = %d after duplicate add, want 1", r.Pairs())
	}
}

func TestRelationForEachRow(t *testing.T) {
	r := NewRelation(6)
	r.Add(5, 0)
	r.Add(2, 3)
	var order []int
	r.ForEachRow(func(s int, targets *Set) bool {
		order = append(order, s)
		return true
	})
	if len(order) != 2 || order[0] != 2 || order[1] != 5 {
		t.Fatalf("ForEachRow order = %v", order)
	}
	n := 0
	r.ForEachRow(func(int, *Set) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d rows", n)
	}
}

// naiveCompose is the reference implementation against which Compose is
// property-tested.
func naiveCompose(r *Relation, succ []*Set) map[[2]int]bool {
	out := map[[2]int]bool{}
	for s := 0; s < r.Universe(); s++ {
		row := r.Row(s)
		if row == nil {
			continue
		}
		row.ForEach(func(t int) bool {
			if succ[t] != nil {
				succ[t].ForEach(func(u int) bool {
					out[[2]int{s, u}] = true
					return true
				})
			}
			return true
		})
	}
	return out
}

func TestComposeSimple(t *testing.T) {
	// r = {(0,1)}, succ(1) = {2,3} → {(0,2),(0,3)}
	r := NewRelation(4)
	r.Add(0, 1)
	succ := make([]*Set, 4)
	succ[1] = NewSet(4)
	succ[1].Add(2)
	succ[1].Add(3)
	got := r.Compose(succ)
	if got.Pairs() != 2 || !got.Contains(0, 2) || !got.Contains(0, 3) {
		t.Fatalf("Compose wrong: pairs=%d", got.Pairs())
	}
}

func TestComposeDeduplicates(t *testing.T) {
	// Two intermediate vertices leading to the same target must count once.
	r := NewRelation(4)
	r.Add(0, 1)
	r.Add(0, 2)
	succ := make([]*Set, 4)
	succ[1] = NewSet(4)
	succ[1].Add(3)
	succ[2] = NewSet(4)
	succ[2].Add(3)
	got := r.Compose(succ)
	if got.Pairs() != 1 {
		t.Fatalf("Pairs() = %d, want 1 (dedup)", got.Pairs())
	}
}

func TestComposeEmpty(t *testing.T) {
	r := NewRelation(4)
	succ := make([]*Set, 4)
	if got := r.Compose(succ); got.Pairs() != 0 {
		t.Fatal("composition of empty relation should be empty")
	}
	r.Add(0, 1) // succ all nil
	if got := r.Compose(succ); got.Pairs() != 0 {
		t.Fatal("composition with empty successors should be empty")
	}
}

func TestComposeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch should panic")
		}
	}()
	NewRelation(4).Compose(make([]*Set, 3))
}

func TestComposeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		r := NewRelation(n)
		for i := 0; i < n; i++ {
			r.Add(rng.Intn(n), rng.Intn(n))
		}
		succ := make([]*Set, n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				continue // leave nil
			}
			succ[i] = NewSet(n)
			for j := 0; j < rng.Intn(4); j++ {
				succ[i].Add(rng.Intn(n))
			}
		}
		got := r.Compose(succ)
		want := naiveCompose(r, succ)
		if got.Pairs() != int64(len(want)) {
			t.Fatalf("trial %d: Pairs() = %d, want %d", trial, got.Pairs(), len(want))
		}
		for p := range want {
			if !got.Contains(p[0], p[1]) {
				t.Fatalf("trial %d: missing pair %v", trial, p)
			}
		}
	}
}

func TestRelationReverse(t *testing.T) {
	r := NewRelation(5)
	r.Add(0, 3)
	r.Add(2, 2)
	r.Add(4, 0)
	rev := r.Reverse()
	if rev.Pairs() != 3 || !rev.Contains(3, 0) || !rev.Contains(2, 2) || !rev.Contains(0, 4) {
		t.Fatal("Reverse wrong")
	}
	// Double reversal is the identity.
	if !rev.Reverse().Equal(r) {
		t.Fatal("Reverse is not an involution")
	}
	if NewRelation(3).Reverse().Pairs() != 0 {
		t.Fatal("empty relation should reverse to empty")
	}
}

func TestRelationEqual(t *testing.T) {
	a, b := NewRelation(5), NewRelation(5)
	if !a.Equal(b) {
		t.Fatal("empty relations should be equal")
	}
	a.Add(1, 2)
	if a.Equal(b) {
		t.Fatal("different relations reported equal")
	}
	b.Add(1, 2)
	if !a.Equal(b) {
		t.Fatal("same relations reported unequal")
	}
	if a.Equal(NewRelation(6)) {
		t.Fatal("different universes reported equal")
	}
}

func TestComposeAssociativity(t *testing.T) {
	// (r ∘ f) ∘ g == r ∘ (f;g) on random data, where f;g is composed
	// per-vertex. This is the algebraic core the path engine relies on.
	rng := rand.New(rand.NewSource(99))
	n := 30
	r := NewRelation(n)
	for i := 0; i < 60; i++ {
		r.Add(rng.Intn(n), rng.Intn(n))
	}
	mkSucc := func() []*Set {
		succ := make([]*Set, n)
		for i := 0; i < n; i++ {
			succ[i] = NewSet(n)
			for j := 0; j < 3; j++ {
				succ[i].Add(rng.Intn(n))
			}
		}
		return succ
	}
	f, g := mkSucc(), mkSucc()

	lhs := r.Compose(f).Compose(g)

	// fg[v] = ∪_{t∈f[v]} g[t]
	fg := make([]*Set, n)
	for v := 0; v < n; v++ {
		fg[v] = NewSet(n)
		f[v].ForEach(func(t int) bool {
			fg[v].UnionWith(g[t])
			return true
		})
	}
	rhs := r.Compose(fg)
	if !lhs.Equal(rhs) {
		t.Fatal("composition is not associative")
	}
}
