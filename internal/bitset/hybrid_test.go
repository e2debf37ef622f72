package bitset_test

import (
	"math/rand"
	"testing"

	. "repro/internal/bitset"
	"repro/internal/oracle"
)

// legacyFromOperand builds the dense reference relation of an operand.
func legacyFromOperand(op CSROperand) *oracle.Relation {
	r := oracle.NewRelation(op.N)
	for v := 0; v < op.N; v++ {
		for _, t := range op.Targets[op.Offsets[v]:op.Offsets[v+1]] {
			r.Add(v, int(t))
		}
	}
	return r
}

// successorSets builds an operand's successor sets — the table the dense
// reference composes through — from its CSR rows.
func successorSets(op CSROperand) []*oracle.Set {
	r := legacyFromOperand(op)
	sets := make([]*oracle.Set, op.N)
	for v := range sets {
		sets[v] = r.Row(v)
	}
	return sets
}

func TestHybridFromCSRMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 64, 65, 300} {
		for _, density := range []float64{1e-9, 0.03125, 0.5, 1.0} {
			op := RandomOperand(rng, n, n*3)
			h := HybridFromCSR(op, density)
			want := legacyFromOperand(op)
			if !oracle.EqualRelation(h, want) {
				t.Fatalf("n=%d density=%v: hybrid != legacy", n, density)
			}
			if h.Pairs() != want.Pairs() {
				t.Fatalf("n=%d density=%v: pairs %d != %d", n, density, h.Pairs(), want.Pairs())
			}
		}
	}
}

// TestHybridComposeMatchesLegacy is the core kernel property test: the
// hybrid compose (sparse and dense left rows alike scatter their targets'
// CSR rows) must produce exactly the pairs of the legacy dense compose,
// across densities that force all-sparse, mixed, and all-dense rows.
func TestHybridComposeMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(200)
		opA := RandomOperand(rng, n, 1+rng.Intn(4*n))
		opB := RandomOperand(rng, n, 1+rng.Intn(4*n))
		want := legacyFromOperand(opA).Compose(successorSets(opB))
		for _, density := range []float64{1e-9, 0.03125, 0.25, 1.0} {
			h := HybridFromCSR(opA, density)
			got := NewHybrid(n, density)
			h.ComposeInto(got, opB, NewComposeScratch(n))
			if !oracle.EqualRelation(got, want) {
				t.Fatalf("trial %d n=%d density=%v: compose mismatch", trial, n, density)
			}
			if got.Pairs() != want.Pairs() {
				t.Fatalf("trial %d n=%d density=%v: pairs %d != %d",
					trial, n, density, got.Pairs(), want.Pairs())
			}
		}
	}
}

// TestHybridComposeIntoReuse checks the pooling contract: a destination
// reused across many ComposeInto calls (including after holding dense rows)
// always equals a freshly allocated result.
func TestHybridComposeIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 150
	dst := NewHybrid(n, 0.1)
	scr := NewComposeScratch(n)
	for trial := 0; trial < 30; trial++ {
		opA := RandomOperand(rng, n, 1+rng.Intn(6*n))
		opB := RandomOperand(rng, n, 1+rng.Intn(6*n))
		h := HybridFromCSR(opA, 0.1)
		h.ComposeInto(dst, opB, scr)
		want := legacyFromOperand(opA).Compose(successorSets(opB))
		if !oracle.EqualRelation(dst, want) {
			t.Fatalf("trial %d: reused dst diverged from fresh compose", trial)
		}
	}
}

func TestHybridPromotionRule(t *testing.T) {
	const n = 640
	op := CSROperand{N: n, Offsets: make([]int32, n+1)}
	// Source 0 has exactly n/32 targets (at the memory-parity threshold);
	// source 1 has n/32 + 1 (just past it).
	limit := n / 32
	for i := 0; i < limit; i++ {
		op.Targets = append(op.Targets, int32(i))
	}
	op.Offsets[1] = int32(limit)
	for i := 0; i <= limit; i++ {
		op.Targets = append(op.Targets, int32(i))
	}
	for v := 1; v < n; v++ {
		op.Offsets[v+1] = op.Offsets[v]
	}
	op.Offsets[2] = op.Offsets[1] + int32(limit) + 1
	for v := 2; v <= n; v++ {
		op.Offsets[v] = op.Offsets[2]
	}
	h := HybridFromCSR(op, 0) // default threshold = 1/32
	if h.RowDense(0) {
		t.Fatalf("row with count=|V|/32 should stay sparse")
	}
	if !h.RowDense(1) {
		t.Fatalf("row with count=|V|/32+1 should promote to dense")
	}
	if h.RowCount(0) != limit || h.RowCount(1) != limit+1 {
		t.Fatalf("cached counts wrong: %d, %d", h.RowCount(0), h.RowCount(1))
	}
}

func TestHybridPairsCached(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	op := RandomOperand(rng, 128, 500)
	h := HybridFromCSR(op, 0.1)
	want := legacyFromOperand(op).Pairs()
	for i := 0; i < 3; i++ {
		if h.Pairs() != want {
			t.Fatalf("Pairs() = %d, want %d", h.Pairs(), want)
		}
	}
}

func TestHybridResetKeepsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	op := RandomOperand(rng, 64, 300)
	h := HybridFromCSR(op, 0.5)
	h.Reset()
	if h.Pairs() != 0 || h.Rows().Len() != 0 {
		t.Fatalf("reset relation not empty: pairs=%d sources=%d", h.Pairs(), h.Rows().Len())
	}
	h.ForEachPair(func(s, t2 int) bool {
		t.Fatalf("reset relation yielded pair (%d,%d)", s, t2)
		return false
	})
}

func TestHybridComposeAliasPanics(t *testing.T) {
	op := RandomOperand(rand.New(rand.NewSource(6)), 32, 50)
	h := HybridFromCSR(op, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("aliased ComposeInto should panic")
		}
	}()
	h.ComposeInto(h, op, NewComposeScratch(32))
}

func TestHybridContains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	op := RandomOperand(rng, 90, 400)
	want := legacyFromOperand(op)
	for _, density := range []float64{1e-9, 1.0} {
		h := HybridFromCSR(op, density)
		for s := 0; s < 90; s++ {
			for t2 := 0; t2 < 90; t2++ {
				if h.Contains(s, t2) != want.Contains(s, t2) {
					t.Fatalf("density=%v: Contains(%d,%d) mismatch", density, s, t2)
				}
			}
		}
	}
}
