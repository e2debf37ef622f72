package core

import (
	"math"
	"testing"

	"repro/internal/ordering"
	"repro/internal/paths"
)

func TestProfileExactHistogramIsZero(t *testing.T) {
	c, card := testCensus(t)
	ph, err := Build(c, ordering.NewSumBased(card, 3), BuilderVOptimal, int(c.Size()))
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile(ph, c)
	if len(prof.ByLength) != 3 {
		t.Fatalf("length buckets = %d, want 3", len(prof.ByLength))
	}
	for _, lb := range prof.ByLength {
		if lb.MeanErrorRate != 0 {
			t.Fatalf("exact histogram should have zero error at length %d", lb.Length)
		}
	}
	for _, db := range prof.ByDecile {
		if db.MeanErrorRate != 0 {
			t.Fatalf("exact histogram should have zero error in decile %d", db.Decile)
		}
	}
}

func TestProfileStructure(t *testing.T) {
	c, card := testCensus(t)
	ph, err := Build(c, ordering.NewSumBased(card, 3), BuilderVOptimal, 8)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile(ph, c)

	// Length classes tile the domain: 3, 9, 27 paths for |L|=3, k=3.
	wantPaths := []int64{3, 9, 27}
	var total int64
	for i, lb := range prof.ByLength {
		if lb.Length != i+1 {
			t.Fatalf("length bucket %d has length %d", i, lb.Length)
		}
		if lb.Paths != wantPaths[i] {
			t.Fatalf("length %d: %d paths, want %d", lb.Length, lb.Paths, wantPaths[i])
		}
		total += lb.Paths
	}
	if total != c.Size() {
		t.Fatalf("length buckets cover %d paths, want %d", total, c.Size())
	}

	// Deciles are ordered by true selectivity and cover the domain.
	var decTotal int64
	prevMax := int64(-1)
	for _, db := range prof.ByDecile {
		if db.MinF < prevMax {
			t.Fatalf("decile %d overlaps previous (min %d < prev max %d)", db.Decile, db.MinF, prevMax)
		}
		if db.MinF > db.MaxF {
			t.Fatalf("decile %d has min %d > max %d", db.Decile, db.MinF, db.MaxF)
		}
		prevMax = db.MaxF
		decTotal += db.Paths
		if db.MeanErrorRate < 0 || db.MeanErrorRate > 1 {
			t.Fatalf("decile %d error %v outside [0,1]", db.Decile, db.MeanErrorRate)
		}
	}
	if decTotal != c.Size() {
		t.Fatalf("deciles cover %d paths, want %d", decTotal, c.Size())
	}

	// The profile means must reconstruct the overall mean error.
	ev := Evaluate(ph, c)
	var weighted float64
	for _, lb := range prof.ByLength {
		weighted += lb.MeanErrorRate * float64(lb.Paths)
	}
	if math.Abs(weighted/float64(c.Size())-ev.MeanErrorRate) > 1e-9 {
		t.Fatalf("length-profile mean %v != overall %v", weighted/float64(c.Size()), ev.MeanErrorRate)
	}
}

func TestProfileTinyDomain(t *testing.T) {
	// Fewer than 10 paths: deciles collapse without panicking.
	freq := []int64{5, 2}
	c := paths.FromFrequencies(2, 1, freq)
	ord := ordering.NewNumerical(ordering.AlphabeticalRanking([]string{"a", "b"}), 1)
	ph, err := Build(c, ord, BuilderVOptimal, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile(ph, c)
	var n int64
	for _, db := range prof.ByDecile {
		n += db.Paths
	}
	if n != 2 {
		t.Fatalf("deciles cover %d paths, want 2", n)
	}
}
