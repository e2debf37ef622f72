package ordering

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/paths"
)

func TestAlphabeticalRanking(t *testing.T) {
	r := AlphabeticalRanking([]string{"c", "a", "b"})
	if r.Name() != "alph" || r.NumLabels() != 3 {
		t.Fatal("metadata wrong")
	}
	// "a" (label 1) → rank 1, "b" (label 2) → 2, "c" (label 0) → 3.
	if r.Rank(1) != 1 || r.Rank(2) != 2 || r.Rank(0) != 3 {
		t.Fatalf("ranks wrong: %d %d %d", r.Rank(0), r.Rank(1), r.Rank(2))
	}
	if r.Label(1) != 1 || r.Label(3) != 0 {
		t.Fatal("Label inverse wrong")
	}
}

func TestCardinalityRanking(t *testing.T) {
	r := CardinalityRanking([]int64{20, 100, 80})
	// Least frequent in front: label 0 (f=20) rank 1, label 2 (80) rank 2,
	// label 1 (100) rank 3 — the paper's example.
	if r.Rank(0) != 1 || r.Rank(2) != 2 || r.Rank(1) != 3 {
		t.Fatalf("card ranks wrong: %d %d %d", r.Rank(0), r.Rank(1), r.Rank(2))
	}
	if r.Name() != "card" {
		t.Fatal("name wrong")
	}
}

func TestCardinalityRankingTies(t *testing.T) {
	r := CardinalityRanking([]int64{5, 5, 1})
	if r.Rank(2) != 1 {
		t.Fatal("least frequent should be rank 1")
	}
	// Ties break by label id.
	if r.Rank(0) != 2 || r.Rank(1) != 3 {
		t.Fatalf("tie-break wrong: %d %d", r.Rank(0), r.Rank(1))
	}
}

func TestRankingBijection(t *testing.T) {
	r := CardinalityRanking([]int64{9, 3, 7, 1, 5})
	for l := 0; l < 5; l++ {
		if r.Label(r.Rank(l)) != l {
			t.Fatalf("Label(Rank(%d)) != %d", l, l)
		}
	}
	for rank := int64(1); rank <= 5; rank++ {
		if r.Rank(r.Label(rank)) != rank {
			t.Fatalf("Rank(Label(%d)) != %d", rank, rank)
		}
	}
}

func TestRankingPanics(t *testing.T) {
	r := identityRanking(3)
	for name, fn := range map[string]func(){
		"Rank(-1)": func() { r.Rank(-1) },
		"Rank(3)":  func() { r.Rank(3) },
		"Label(0)": func() { r.Label(0) },
		"Label(4)": func() { r.Label(4) },
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

// allOrderings builds every ordering implementation over a random ranking
// for cross-cutting property tests.
func allOrderings(numLabels, k int, seed int64) []Ordering {
	rng := rand.New(rand.NewSource(seed))
	freq := make([]int64, numLabels)
	for i := range freq {
		freq[i] = int64(rng.Intn(1000))
	}
	names := make([]string, numLabels)
	for i := range names {
		names[i] = string(rune('a' + numLabels - 1 - i)) // reversed names
	}
	alph := AlphabeticalRanking(names)
	card := CardinalityRanking(freq)
	return []Ordering{
		NewNumerical(alph, k),
		NewNumerical(card, k),
		NewLexicographic(alph, k),
		NewLexicographic(card, k),
		NewSumBased(card, k),
		NewSumBased(identityRanking(numLabels), k),
	}
}

func TestOrderingsAreBijections(t *testing.T) {
	// Exhaustive: over the full domain, Path(Index(p)) == p, Index(Path(i))
	// == i, and every index is hit exactly once.
	for _, cfg := range []struct{ l, k int }{{2, 4}, {3, 3}, {4, 2}, {6, 2}, {5, 3}} {
		for _, ord := range allOrderings(cfg.l, cfg.k, int64(cfg.l*10+cfg.k)) {
			seen := make([]bool, ord.Size())
			for idx := int64(0); idx < ord.Size(); idx++ {
				p := ord.Path(idx)
				if len(p) == 0 || len(p) > cfg.k {
					t.Fatalf("%s(L=%d,k=%d): Path(%d) has bad length %d", ord.Name(), cfg.l, cfg.k, idx, len(p))
				}
				back := ord.Index(p)
				if back != idx {
					t.Fatalf("%s(L=%d,k=%d): Index(Path(%d)) = %d", ord.Name(), cfg.l, cfg.k, idx, back)
				}
				if seen[idx] {
					t.Fatalf("%s: index %d hit twice", ord.Name(), idx)
				}
				seen[idx] = true
			}
		}
	}
}

func TestOrderingMetadata(t *testing.T) {
	for _, ord := range allOrderings(4, 3, 1) {
		if ord.NumLabels() != 4 || ord.K() != 3 {
			t.Fatalf("%s: NumLabels/K = %d/%d", ord.Name(), ord.NumLabels(), ord.K())
		}
		if ord.Size() != 4+16+64 {
			t.Fatalf("%s: Size = %d", ord.Name(), ord.Size())
		}
	}
}

func TestOrderingPanics(t *testing.T) {
	for _, ord := range allOrderings(3, 2, 2) {
		for name, fn := range map[string]func(){
			"empty path": func() { ord.Index(paths.Path{}) },
			"long path":  func() { ord.Index(paths.Path{0, 1, 2}) },
			"bad label":  func() { ord.Index(paths.Path{5}) },
			"neg index":  func() { ord.Path(-1) },
			"big index":  func() { ord.Path(ord.Size()) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s should panic", ord.Name(), name)
					}
				}()
				fn()
			}()
		}
	}
}

func TestNumericalLengthFirst(t *testing.T) {
	// All length-1 paths precede all length-2 paths, etc.
	ord := NewNumerical(identityRanking(3), 3)
	prevLen := 0
	for idx := int64(0); idx < ord.Size(); idx++ {
		l := len(ord.Path(idx))
		if l < prevLen {
			t.Fatalf("numerical ordering not length-first at %d", idx)
		}
		prevLen = l
	}
}

func TestLexicographicPrefixFirst(t *testing.T) {
	// Every path appears immediately before its rank-least extensions:
	// dictionary property — a prefix precedes all its extensions.
	ord := NewLexicographic(identityRanking(3), 3)
	for idx := int64(0); idx < ord.Size(); idx++ {
		p := ord.Path(idx)
		if len(p) < 3 {
			ext := append(p.Clone(), 0)
			if ord.Index(ext) <= idx {
				t.Fatalf("extension %v does not follow prefix %v", ext, p)
			}
		}
	}
}

func TestSumBasedStageMonotonicity(t *testing.T) {
	// Within one length class, summed ranks must be non-decreasing as the
	// domain index grows — the stage-two property.
	card := CardinalityRanking([]int64{50, 10, 30, 20})
	ord := NewSumBased(card, 3)
	sums := map[int][]int64{}
	for idx := int64(0); idx < ord.Size(); idx++ {
		p := ord.Path(idx)
		var sr int64
		for _, l := range p {
			sr += card.Rank(l)
		}
		sums[len(p)] = append(sums[len(p)], sr)
	}
	for length, seq := range sums {
		if !sort.SliceIsSorted(seq, func(i, j int) bool { return seq[i] < seq[j] }) {
			t.Fatalf("length-%d summed ranks not sorted", length)
		}
	}
}

func TestForGraph(t *testing.T) {
	g := dataset.ErdosRenyi(50, 250, dataset.UniformLabels{L: 4}, 3).Freeze()
	for _, method := range PaperMethods() {
		ord, err := ForGraph(method, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ord.Name() != method {
			t.Errorf("ForGraph(%s).Name() = %s", method, ord.Name())
		}
		// Spot-check bijection on random paths.
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 50; i++ {
			n := 1 + rng.Intn(3)
			p := make(paths.Path, n)
			for j := range p {
				p[j] = rng.Intn(4)
			}
			if !ord.Path(ord.Index(p)).Equal(p) {
				t.Fatalf("%s: round trip failed for %v", method, p)
			}
		}
	}
	if _, err := ForGraph("nonsense", g, 3); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestForGraphCardUsesFrequencies(t *testing.T) {
	// Build a graph with a known dominant label and check num-card places
	// the rare label first.
	g := dataset.ErdosRenyi(30, 60, dataset.NewZipfLabels(3, 2.0), 8)
	freq := g.Freeze().LabelFrequencies()
	rare := 0
	for l, f := range freq {
		if f < freq[rare] {
			rare = l
		}
	}
	ord, err := ForGraph(MethodNumCard, g.Freeze(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ord.Path(0); got[0] != rare {
		t.Fatalf("num-card Path(0) = label %d, want rarest %d (freq %v)", got[0], rare, freq)
	}
}

func TestNewCommonBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 should panic")
		}
	}()
	NewNumerical(identityRanking(2), 0)
}

// identityRanking ranks label i with rank i+1.
func identityRanking(numLabels int) *Ranking {
	labels := make([]int, numLabels)
	for i := range labels {
		labels[i] = i
	}
	return newRanking("id", labels)
}
