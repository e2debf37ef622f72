package ordering

import (
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/oracle"
	"repro/internal/paths"
)

func TestMaterializedIsBijection(t *testing.T) {
	// Key = canonical index reversed → a valid, distinct permutation.
	numLabels, k := 3, 2
	size := int64(12)
	m := NewMaterialized("rev", numLabels, k, func(can int64) int64 { return size - can })
	if m.Size() != size || m.Name() != "rev" || m.NumLabels() != 3 || m.K() != 2 {
		t.Fatal("metadata wrong")
	}
	seen := make([]bool, size)
	for idx := int64(0); idx < size; idx++ {
		p := m.Path(idx)
		if got := m.Index(p); got != idx {
			t.Fatalf("round trip failed at %d", idx)
		}
		can := paths.CanonicalIndex(p, numLabels, k)
		if seen[can] {
			t.Fatalf("canonical %d seen twice", can)
		}
		seen[can] = true
	}
	// Reversed: domain position 0 must hold the highest canonical index.
	if got := paths.CanonicalIndex(m.Path(0), numLabels, k); got != size-1 {
		t.Fatalf("Path(0) canonical = %d, want %d", got, size-1)
	}
}

func TestMaterializedTieBreakByCanonical(t *testing.T) {
	m := NewMaterialized("const", 3, 1, func(int64) int64 { return 7 })
	for idx := int64(0); idx < 3; idx++ {
		if got := paths.CanonicalIndex(m.Path(idx), 3, 1); got != idx {
			t.Fatalf("constant key should preserve canonical order; Path(%d) canonical = %d", idx, got)
		}
	}
}

func TestMaterializedPathPanics(t *testing.T) {
	m := NewMaterialized("id", 2, 1, func(c int64) int64 { return c })
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Path should panic")
		}
	}()
	m.Path(2)
}

func TestIdealOrderingSortsBySelectivity(t *testing.T) {
	g := dataset.ErdosRenyi(40, 200, dataset.UniformLabels{L: 3}, 4).Freeze()
	c := oracle.NewCensus(g, 3)
	ideal := NewIdeal(c)
	if ideal.Name() != "ideal" {
		t.Fatal("name wrong")
	}
	var prev int64 = -1
	for idx := int64(0); idx < ideal.Size(); idx++ {
		f := c.Selectivity(ideal.Path(idx))
		if f < prev {
			t.Fatalf("ideal ordering not monotone at %d: %d < %d", idx, f, prev)
		}
		prev = f
	}
}

func TestBaseSetL2Decompose(t *testing.T) {
	// Uniform weights: every piece of length ≤ 2 is in B, so the greedy
	// rule always cuts length-2 pieces while possible — the paper's
	// "4/4/3/3/6" → "4/4", "3/3", "6" example.
	b := NewBaseSetL2(6, func(paths.Path) int64 { return 1 })
	if len(b.rankOf) != 6+36 {
		t.Fatalf("|B| = %d, want 42", len(b.rankOf))
	}
	p := pathOf(t, "4/4/3/3/6")
	got := b.Decompose(p)
	want := []string{"4/4", "3/3", "6"}
	if len(got) != len(want) {
		t.Fatalf("Decompose = %d pieces, want %d", len(got), len(want))
	}
	for i, piece := range got {
		if piece.Key() != want[i] {
			t.Fatalf("piece %d = %s, want %s", i, piece.Key(), want[i])
		}
	}
}

func TestBaseSetRanksSortedByWeight(t *testing.T) {
	// Weight = selectivity proxy; rank 1 must be the lightest piece.
	weights := map[string]int64{"1": 50, "2": 10, "1/1": 5, "1/2": 90, "2/1": 20, "2/2": 70}
	b := NewBaseSetL2(2, func(p paths.Path) int64 { return weights[p.Key()] })
	type pr struct {
		key  string
		rank int64
	}
	var got []pr
	for key := range weights {
		p := pathOf(t, key)
		got = append(got, pr{key, b.Rank(p)})
	}
	sort.Slice(got, func(i, j int) bool { return got[i].rank < got[j].rank })
	for i := 1; i < len(got); i++ {
		if weights[got[i].key] < weights[got[i-1].key] {
			t.Fatalf("ranks not sorted by weight: %v", got)
		}
	}
}

func TestBaseSetRankUnknownPiecePanics(t *testing.T) {
	b := NewBaseSetL2(2, func(paths.Path) int64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("length-3 piece should panic")
		}
	}()
	b.Rank(paths.Path{0, 0, 0})
}

func TestNewSumL2IsBijection(t *testing.T) {
	g := dataset.ErdosRenyi(30, 150, dataset.UniformLabels{L: 3}, 6).Freeze()
	c := oracle.NewCensus(g, 3)
	ord := NewSumL2(c)
	if ord.Name() != "sum-L2" {
		t.Fatal("name wrong")
	}
	seen := make([]bool, ord.Size())
	for idx := int64(0); idx < ord.Size(); idx++ {
		p := ord.Path(idx)
		if ord.Index(p) != idx {
			t.Fatalf("round trip failed at %d", idx)
		}
		can := paths.CanonicalIndex(p, 3, 3)
		if seen[can] {
			t.Fatal("duplicate path")
		}
		seen[can] = true
	}
	// Length-first property inherited from SumKey's high-order term.
	prevLen := 0
	for idx := int64(0); idx < ord.Size(); idx++ {
		l := len(ord.Path(idx))
		if l < prevLen {
			t.Fatalf("sum-L2 not length-first at %d", idx)
		}
		prevLen = l
	}
}

func TestNewSumL2RequiresK2(t *testing.T) {
	g := dataset.ErdosRenyi(10, 20, dataset.UniformLabels{L: 2}, 1).Freeze()
	c := oracle.NewCensus(g, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("k=1 census should panic")
		}
	}()
	NewSumL2(c)
}
