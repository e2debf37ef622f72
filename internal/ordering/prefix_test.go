package ordering

import (
	"testing"

	"repro/internal/paths"
)

func TestPrefixRangeContiguous(t *testing.T) {
	// For every path p, [lo, hi) must contain exactly p and its
	// extensions, and nothing else — verified exhaustively.
	ord := NewLexicographic(identityRanking(3), 3)
	for idx := int64(0); idx < ord.Size(); idx++ {
		p := ord.Path(idx)
		lo, hi := ord.PrefixRange(p)
		if lo != idx {
			t.Fatalf("PrefixRange(%v) starts at %d, want %d", p.Key(), lo, idx)
		}
		for j := int64(0); j < ord.Size(); j++ {
			q := ord.Path(j)
			isExt := len(q) >= len(p) && q[:len(p)].Equal(p)
			inRange := j >= lo && j < hi
			if isExt != inRange {
				t.Fatalf("path %s (idx %d) vs prefix %s: extension=%v inRange=%v [%d,%d)",
					q.Key(), j, p.Key(), isExt, inRange, lo, hi)
			}
		}
	}
}

func TestPrefixRangeSizes(t *testing.T) {
	ord := NewLexicographic(identityRanking(2), 4)
	// A length-m prefix block holds Σ_{j=0..k-m} 2^j positions.
	cases := []struct {
		path paths.Path
		want int64
	}{
		{paths.Path{0}, 1 + 2 + 4 + 8},
		{paths.Path{0, 1}, 1 + 2 + 4},
		{paths.Path{1, 1, 0}, 1 + 2},
		{paths.Path{1, 1, 0, 1}, 1},
	}
	for _, c := range cases {
		lo, hi := ord.PrefixRange(c.path)
		if hi-lo != c.want {
			t.Errorf("PrefixRange(%s) width = %d, want %d", c.path.Key(), hi-lo, c.want)
		}
	}
}

func TestPrefixRangeWithCardRanking(t *testing.T) {
	// The property must hold under any ranking, not just identity.
	card := CardinalityRanking([]int64{50, 10, 30})
	ord := NewLexicographic(card, 2)
	for idx := int64(0); idx < ord.Size(); idx++ {
		p := ord.Path(idx)
		lo, hi := ord.PrefixRange(p)
		count := int64(0)
		for j := lo; j < hi; j++ {
			q := ord.Path(j)
			if len(q) < len(p) || !q[:len(p)].Equal(p) {
				t.Fatalf("index %d in PrefixRange(%s) is %s, not an extension", j, p.Key(), q.Key())
			}
			count++
		}
		if count != hi-lo {
			t.Fatal("range width mismatch")
		}
	}
}

func TestPrefixRangePanicsOnBadPath(t *testing.T) {
	ord := NewLexicographic(identityRanking(2), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("empty path should panic")
		}
	}()
	ord.PrefixRange(paths.Path{})
}
