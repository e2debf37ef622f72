package ordering

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/paths"
)

// The paper's §3.4 worked example: an artificial dataset with 3 edge
// labels "1", "2", "3" of cardinality 20, 100, 80, and Lk with k = 2.
// These golden tests pin Table 1 (summed ranks) and Table 2 (all five
// orderings) exactly.

var (
	exampleNames = []string{"1", "2", "3"}
	exampleFreq  = []int64{20, 100, 80}
	exampleK     = 2
)

// pathOf reads the paper's 1-based "a/b/c" notation, the inverse of
// paths.Path.Key.
func pathOf(t *testing.T, key string) paths.Path {
	t.Helper()
	var p paths.Path
	for _, s := range strings.Split(key, "/") {
		l, err := strconv.Atoi(s)
		if err != nil || l < 1 {
			t.Fatalf("bad path %q", key)
		}
		p = append(p, l-1)
	}
	return p
}

func exampleRankings() (alph, card *Ranking) {
	return AlphabeticalRanking(exampleNames), CardinalityRanking(exampleFreq, exampleNames)
}

func TestTable1SummedRanks(t *testing.T) {
	_, card := exampleRankings()
	want := map[string]int64{
		"1": 1, "2": 3, "3": 2,
		"1/1": 2, "1/2": 4, "1/3": 3,
		"2/1": 4, "2/2": 6, "2/3": 5,
		"3/1": 3, "3/2": 5, "3/3": 4,
	}
	for key, wantSum := range want {
		p := pathOf(t, key)
		var sum int64
		for _, l := range p {
			sum += card.Rank(l)
		}
		if sum != wantSum {
			t.Errorf("summed rank of %s = %d, want %d", key, sum, wantSum)
		}
	}
}

// table2 lists the paper's Table 2 verbatim: for each method, the label
// paths at domain indexes 0…11.
var table2 = map[string][]string{
	MethodNumAlph:  {"1", "2", "3", "1/1", "1/2", "1/3", "2/1", "2/2", "2/3", "3/1", "3/2", "3/3"},
	MethodNumCard:  {"1", "3", "2", "1/1", "1/3", "1/2", "3/1", "3/3", "3/2", "2/1", "2/3", "2/2"},
	MethodLexAlph:  {"1", "1/1", "1/2", "1/3", "2", "2/1", "2/2", "2/3", "3", "3/1", "3/2", "3/3"},
	MethodLexCard:  {"1", "1/1", "1/3", "1/2", "3", "3/1", "3/3", "3/2", "2", "2/1", "2/3", "2/2"},
	MethodSumBased: {"1", "3", "2", "1/1", "1/3", "3/1", "3/3", "1/2", "2/1", "3/2", "2/3", "2/2"},
}

func exampleOrdering(t *testing.T, method string) Ordering {
	t.Helper()
	alph, card := exampleRankings()
	switch method {
	case MethodNumAlph:
		return NewNumerical(alph, exampleK)
	case MethodNumCard:
		return NewNumerical(card, exampleK)
	case MethodLexAlph:
		return NewLexicographic(alph, exampleK)
	case MethodLexCard:
		return NewLexicographic(card, exampleK)
	case MethodSumBased:
		return NewSumBased(card, exampleK)
	}
	t.Fatalf("unknown method %s", method)
	return nil
}

func TestTable2GoldenOrderings(t *testing.T) {
	for method, row := range table2 {
		ord := exampleOrdering(t, method)
		if ord.Name() != method {
			t.Errorf("%s: Name() = %q", method, ord.Name())
		}
		if ord.Size() != 12 {
			t.Fatalf("%s: Size() = %d, want 12", method, ord.Size())
		}
		for idx, key := range row {
			p := pathOf(t, key)
			if got := ord.Index(p); got != int64(idx) {
				t.Errorf("%s: Index(%s) = %d, want %d", method, key, got, idx)
			}
			if got := ord.Path(int64(idx)); got.Key() != key {
				t.Errorf("%s: Path(%d) = %s, want %s", method, idx, got.Key(), key)
			}
		}
	}
}
