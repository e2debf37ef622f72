package pathsel

import (
	"strings"
	"testing"
)

func TestExpandPattern(t *testing.T) {
	g := socialGraph(t)
	cases := []struct {
		pattern string
		want    int // expansions
	}{
		{"knows", 1},
		{"*", 2},
		{"knows/likes", 1},
		{"*/*", 4},
		{"knows|likes", 2},
		{"knows|likes/knows", 2},
		{"*/knows|likes/*", 8},
	}
	for _, c := range cases {
		ps, err := g.patternExpansions(c.pattern)
		if err != nil {
			t.Fatalf("%s: %v", c.pattern, err)
		}
		if len(ps) != c.want {
			t.Errorf("%s expanded to %d paths, want %d", c.pattern, len(ps), c.want)
		}
	}
}

func TestExpandPatternErrors(t *testing.T) {
	g := socialGraph(t)
	for _, bad := range []string{"", "zzz", "knows/zzz", "knows|zzz"} {
		if _, err := g.patternExpansions(bad); err == nil {
			t.Errorf("pattern %q should fail", bad)
		}
	}
}

func TestExpandPatternExplosionCapped(t *testing.T) {
	// 26 labels, 4 wildcard segments = 456976 > cap.
	labels := make([]string, 26)
	for i := range labels {
		labels[i] = string(rune('a' + i))
	}
	g := NewGraph(3, labels)
	if _, err := g.patternExpansions("*/*/*/*"); err == nil {
		t.Fatal("explosive pattern should be rejected")
	}
	if _, err := g.patternExpansions("*/*"); err != nil {
		t.Fatalf("676 expansions should be fine: %v", err)
	}
}

func TestTruePatternSelectivitySetVsBag(t *testing.T) {
	g := socialGraph(t)
	// "knows|likes": set semantics counts distinct pairs once; bag sums.
	set, err := g.TruePatternSelectivity("knows|likes")
	if err != nil {
		t.Fatal(err)
	}
	bag, err := g.TruePatternBagSelectivity("knows|likes")
	if err != nil {
		t.Fatal(err)
	}
	fk, _ := g.TrueSelectivity("knows")
	fl, _ := g.TrueSelectivity("likes")
	if bag != fk+fl {
		t.Fatalf("bag = %d, want %d", bag, fk+fl)
	}
	if set > bag {
		t.Fatalf("set semantics (%d) cannot exceed bag (%d)", set, bag)
	}
	if set <= 0 {
		t.Fatal("set selectivity should be positive")
	}
}

func TestEstimatePatternExactBudget(t *testing.T) {
	g := socialGraph(t)
	est, err := Build(g, Config{MaxPathLength: 2, Buckets: 6}) // singleton buckets
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"knows", "*", "knows|likes/knows", "*/*"} {
		e, err := estimatePattern(est, pattern)
		if err != nil {
			t.Fatal(err)
		}
		bag, err := g.TruePatternBagSelectivity(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if e != float64(bag) {
			t.Errorf("exact-budget EstimatePattern(%s) = %v, want %d", pattern, e, bag)
		}
	}
}

func TestEstimatePatternErrors(t *testing.T) {
	g := socialGraph(t)
	est, err := Build(g, Config{MaxPathLength: 2, Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := estimatePattern(est, "*/*/*"); err == nil || !strings.Contains(err.Error(), "MaxPathLength") {
		t.Fatalf("over-length pattern should error on MaxPathLength, got %v", err)
	}
	if _, err := estimatePattern(est, "zzz"); err == nil {
		t.Fatal("unknown label should error")
	}
}

func TestTruePatternSelectivityErrors(t *testing.T) {
	g := socialGraph(t)
	if _, err := g.TruePatternSelectivity("zzz"); err == nil {
		t.Fatal("unknown label should error")
	}
	if _, err := g.TruePatternBagSelectivity("zzz|knows"); err == nil {
		t.Fatal("unknown alternation member should error")
	}
}

func TestTruePatternSelectivityWildcardEqualsUnionOfLabels(t *testing.T) {
	g := socialGraph(t)
	// "*" under set semantics = distinct pairs with any edge.
	set, err := g.TruePatternSelectivity("*")
	if err != nil {
		t.Fatal(err)
	}
	// The social graph has 8 edges with no parallel (src,dst) duplicates
	// except none — count manually: all 8 (src,dst) pairs distinct.
	if set != 8 {
		t.Fatalf("wildcard set selectivity = %d, want 8", set)
	}
}
