package workload

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/oracle"
	"repro/internal/ordering"
	"repro/internal/paths"
)

func testCensus(t *testing.T) *paths.Census {
	t.Helper()
	g := dataset.ErdosRenyi(50, 200, dataset.NewZipfLabels(3, 1.2), 3).Freeze()
	return oracle.NewCensus(g, 3)
}

func TestGenerateDeterministic(t *testing.T) {
	c := testCensus(t)
	s, err := NewNonEmpty(c)
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(s, 50, 7)
	b := Generate(s, 50, 7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different workloads")
		}
	}
	cDiff := Generate(s, 50, 8)
	same := true
	for i := range a {
		if !a[i].Equal(cDiff[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestUniformSampler(t *testing.T) {
	ord := ordering.NewNumerical(ordering.AlphabeticalRanking([]string{"a", "b", "c"}), 2)
	s := Uniform{Ord: ord}
	if s.Name() != "uniform" {
		t.Fatal("name wrong")
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 6000; i++ {
		p := s.Sample(rng)
		if len(p) < 1 || len(p) > 2 {
			t.Fatalf("bad path length %d", len(p))
		}
		counts[p.Key()]++
	}
	// 12 domain positions, each ≈ 500 draws.
	if len(counts) != 12 {
		t.Fatalf("uniform sampler covered %d/12 paths", len(counts))
	}
	for key, n := range counts {
		if n < 300 || n > 800 {
			t.Fatalf("path %s drawn %d times, far from 500", key, n)
		}
	}
}

func TestNonEmptySamplerOnlyPositive(t *testing.T) {
	c := testCensus(t)
	s, err := NewNonEmpty(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := s.Sample(rng)
		if c.Selectivity(p) == 0 {
			t.Fatalf("non-empty sampler drew empty path %s", p.Key())
		}
	}
}

func TestNonEmptyEmptyCensusErrors(t *testing.T) {
	empty := paths.FromFrequencies(2, 1, []int64{0, 0})
	if _, err := NewNonEmpty(empty); err == nil {
		t.Fatal("empty census should error")
	}
}

func TestFrequencyWeightedBias(t *testing.T) {
	// A census with one dominant path must dominate the sample.
	freq := []int64{1000, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0} // |L2| over 3 labels
	c := paths.FromFrequencies(3, 2, freq)
	s, err := NewFrequencyWeighted(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "freq-weighted" {
		t.Fatal("name wrong")
	}
	rng := rand.New(rand.NewSource(3))
	hot := 0
	for i := 0; i < 1000; i++ {
		p := s.Sample(rng)
		if c.Selectivity(p) == 0 {
			t.Fatal("zero-frequency path sampled")
		}
		if paths.CanonicalIndex(p, 3, 2) == 0 {
			hot++
		}
	}
	if hot < 950 {
		t.Fatalf("dominant path drawn only %d/1000 times", hot)
	}
}

func TestFrequencyWeightedZeroTotalErrors(t *testing.T) {
	empty := paths.FromFrequencies(2, 1, []int64{0, 0})
	if _, err := NewFrequencyWeighted(empty); err == nil {
		t.Fatal("zero-mass census should error")
	}
}

func TestFrequencyWeightedMatchesDistribution(t *testing.T) {
	c := testCensus(t)
	s, err := NewFrequencyWeighted(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const draws = 50000
	counts := make([]int64, c.Size())
	for i := 0; i < draws; i++ {
		counts[paths.CanonicalIndex(s.Sample(rng), c.NumLabels(), c.K())]++
	}
	var total float64
	for idx := int64(0); idx < c.Size(); idx++ {
		total += float64(c.AtCanonical(idx))
	}
	for idx := int64(0); idx < c.Size(); idx++ {
		expected := float64(c.AtCanonical(idx)) / total * draws
		if expected < 100 {
			continue // too rare to assert tightly
		}
		got := float64(counts[idx])
		if got < expected*0.7 || got > expected*1.3 {
			t.Fatalf("path %d drawn %v times, expected ≈ %v", idx, got, expected)
		}
	}
}

func TestFixedLengthSampler(t *testing.T) {
	s := FixedLength{NumLabels: 4, Length: 3}
	if s.Name() != "len-3" {
		t.Fatal("name wrong")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p := s.Sample(rng)
		if len(p) != 3 {
			t.Fatalf("length %d, want 3", len(p))
		}
		for _, l := range p {
			if l < 0 || l >= 4 {
				t.Fatalf("label %d out of range", l)
			}
		}
	}
}
