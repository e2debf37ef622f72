package bitset

import (
	"fmt"
	"math/rand"
	"testing"
)

// assertCountLabels checks the fused leaf kernel against its definition:
// for every label, the Pairs of a count-only ComposeShard of r through
// that label's operand alone. The counts start dirty (the kernel writes
// them, it does not add to them), and the fused accumulator must be clean
// afterwards.
func assertCountLabels(t *testing.T, ctx string, r Rows, n int, ops []CSROperand, budget int) {
	t.Helper()
	scr := NewComposeScratch(n)
	want := make([]int64, len(ops))
	for l := range ops {
		_, c := r.ComposeShard(nil, ops[l:l+1], scr, n, 0, r.Len(), nil)
		want[l] = c.Pairs
	}
	f := FuseOperandsBudget(n, ops, budget)
	fscr := f.NewScratch()
	got := make([]int64, len(ops))
	for l := range got {
		got[l] = -1
	}
	r.CountLabels(f, fscr, got)
	assertClean(t, ctx, fscr)
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("%s (budget %d: %d chunks of %d): label %d counted %d, per-label step %d",
				ctx, budget, f.chunks, f.group, l, got[l], want[l])
		}
	}
}

// fusedBudgets are the accumulator budgets a test sweeps: the built-in one
// (every label in one chunk here), less than one stride (chunks of one),
// three strides (chunks of three and a remainder) and two strides.
func fusedBudgets(n int) []int {
	stride := max(1, wordsFor(n)) * wordBits
	return []int{fusedBudget, 1, 3 * stride, 2 * stride}
}

// TestCountLabels pins CountLabels to the per-label steps over universes
// on both sides of a word and of a summary word, one to seven labels with
// one of them edgeless, left relations that are empty, all sparse, all
// dense and mixed, a label's CSR rows as the left side, and every budget
// of fusedBudgets.
func TestCountLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 63, 64, 65, 4097} {
		for _, nl := range []int{1, 2, 7} {
			ops := make([]CSROperand, nl)
			for l := range ops {
				ops[l] = RandomOperand(rng, n, (l+1)*n)
			}
			if nl > 1 {
				ops[1] = RandomOperand(rng, n, 0) // a label with no edges
			}
			for _, density := range []float64{1, 0, 1e-9} {
				for _, pairs := range []int{0, 3 * n} {
					h, _ := RandomHybrid(rng, n, pairs, density)
					for _, budget := range fusedBudgets(n) {
						ctx := fmt.Sprintf("n %d labels %d density %v pairs %d", n, nl, density, pairs)
						assertCountLabels(t, ctx, h.Rows(), n, ops, budget)
						assertCountLabels(t, ctx+" csr rows", ops[0].Rows(), n, ops, budget)
					}
				}
			}
		}
	}
}

// FuzzCountLabels fuzzes the fused leaf kernel against the per-label steps:
// universes of one to four summary words, up to eight labels with sparse,
// dense and empty rows on the left, and a budget that puts labels in chunks
// of any size.
func FuzzCountLabels(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint16(200), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(200), uint8(8), uint16(900), uint8(1), uint8(1), uint8(3))
	f.Add(int64(3), uint8(65), uint8(7), uint16(4000), uint8(2), uint8(2), uint8(3))
	f.Add(int64(4), uint8(1), uint8(1), uint16(1), uint8(1), uint8(0), uint8(1))
	f.Add(int64(5), uint8(17), uint8(5), uint16(0), uint8(0), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels uint8, edges uint16, regime, budgetSel, scale uint8) {
		n, nl := ScaledUniverse(max(1, int(vertices)), scale), 1+int(labels)%8
		rng := rand.New(rand.NewSource(seed))
		ops := make([]CSROperand, nl)
		for l := range ops {
			ops[l] = RandomOperand(rng, n, rng.Intn(int(edges)+1))
		}
		h, _ := RandomHybrid(rng, n, int(edges), []float64{1, 0, 1e-9}[regime%3])
		budget := fusedBudget
		if budgetSel > 0 {
			budget = int(budgetSel%(8+1)) * max(1, wordsFor(n)) * wordBits
		}
		assertCountLabels(t, "fuzz", h.Rows(), n, ops, budget)
		assertCountLabels(t, "fuzz csr rows", ops[0].Rows(), n, ops, budget)
	})
}
