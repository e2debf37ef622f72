package ordering

import (
	"math/rand"
	"testing"

	"repro/internal/combinat"
	"repro/internal/paths"
)

// refIndex is SumBased.Index as it was: the rank permutation and its
// sorted copy on the heap, and the permutation ranked from scratch
// (combinat.RankPermutation, itself pinned to its own predecessor in
// internal/combinat) instead of from the combination table's count.
func refIndex(o *SumBased, p paths.Path) int64 {
	o.checkPath(p)
	m := int64(len(p))
	perm := make([]int64, m)
	var sr int64
	for i, l := range p {
		perm[i] = o.rank.Rank(l)
		sr += perm[i]
	}
	g := &o.groups[m-1][sr-m]
	sorted := make([]int64, m)
	copy(sorted, perm)
	sortAscending(sorted)
	for i := range g.parts {
		e := &g.parts[i]
		match := len(e.parts) == len(sorted)
		for j := 0; match && j < len(sorted); j++ {
			match = e.parts[j] == sorted[j]
		}
		if match {
			return g.offset + e.cum + combinat.RankPermutation(perm)
		}
	}
	panic("ordering: sum-based combination table is missing a multiset (corrupt state)")
}

// sumBasedRankings is one sum-based ordering per kind of ranking.
func sumBasedRankings(rng *rand.Rand, numLabels, k int) []*SumBased {
	freq := make([]int64, numLabels)
	names := make([]string, numLabels)
	for i := range freq {
		freq[i] = int64(rng.Intn(1000))
		names[i] = string(rune('a' + (i*7+3)%numLabels))
	}
	var out []*SumBased
	for _, r := range []*Ranking{
		identityRanking(numLabels), AlphabeticalRanking(names), CardinalityRanking(freq, names), randomRanking(rng, numLabels),
	} {
		out = append(out, NewSumBased(r, k))
	}
	return out
}

func assertIndexMatchesReference(t *testing.T, o *SumBased, p paths.Path) {
	t.Helper()
	idx := o.Index(p)
	if want := refIndex(o, p); idx != want {
		t.Fatalf("%s |L|=%d: Index(%v) = %d, reference %d", o.Name(), o.NumLabels(), p, idx, want)
	}
	if back := o.Path(idx); !back.Equal(p) {
		t.Fatalf("%s |L|=%d: Path(Index(%v)) = %v", o.Name(), o.NumLabels(), p, back)
	}
}

// TestSumBasedIndexMatchesReferenceExhaustive checks every one of the
// 55 986 paths of the benchmark's domain (|L| = 6, k = 6), for every
// ranking.
func TestSumBasedIndexMatchesReferenceExhaustive(t *testing.T) {
	const numLabels, k = 6, 6
	for _, o := range sumBasedRankings(rand.New(rand.NewSource(3)), numLabels, k) {
		if o.Size() != 55986 {
			t.Fatalf("domain size %d", o.Size())
		}
		for can := int64(0); can < o.Size(); can++ {
			assertIndexMatchesReference(t, o, paths.FromCanonicalIndex(can, numLabels, k))
		}
	}
}

// TestSumBasedIndexMatchesReferenceRandom samples alphabets the
// exhaustive test cannot afford.
func TestSumBasedIndexMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, numLabels := range []int{2, 8, 20} {
		for _, o := range sumBasedRankings(rng, numLabels, 6) {
			for trial := 0; trial < 2000; trial++ {
				p := make(paths.Path, 1+rng.Intn(6))
				for i := range p {
					p[i] = rng.Intn(numLabels)
				}
				assertIndexMatchesReference(t, o, p)
			}
		}
	}
}

// FuzzSumBasedIndex checks Index against refIndex, and Path against Index,
// for a random ranking over |L| ∈ [2, 40] labels at k ∈ [1, 8] and a path
// decoded from data (its first byte the length, the rest its labels). k
// is lowered until the constructor's tables hold at most 2^14
// combinations — the C(|L|+k, k) − 1 multisets of up to k ranks — so an
// input builds in milliseconds.
func FuzzSumBasedIndex(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), []byte{5, 0, 1, 2, 3, 3, 1})
	f.Add(int64(2), uint8(38), uint8(7), []byte{2, 39, 0, 17})
	f.Add(int64(3), uint8(0), uint8(7), []byte{7, 1, 0, 1, 1, 0, 0, 1, 0})
	f.Add(int64(4), uint8(6), uint8(7), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, labels, k uint8, data []byte) {
		numLabels, depth := 2+int(labels)%39, 1+int(k)%8
		for depth > 1 && binomial(numLabels+depth, depth)-1 > 1<<14 {
			depth--
		}
		o := NewSumBased(randomRanking(rand.New(rand.NewSource(seed)), numLabels), depth)
		p := make(paths.Path, 1)
		if len(data) > 0 {
			p = make(paths.Path, 1+int(data[0])%depth)
			for i := range p {
				if 1+i < len(data) {
					p[i] = int(data[1+i]) % numLabels
				}
			}
		}
		assertIndexMatchesReference(t, o, p)
	})
}

// TestSumBasedIndexAllocatesNothing pins what the planner's hot path
// relies on: a lookup makes no allocation at any census-bounded length.
func TestSumBasedIndexAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	o := NewSumBased(randomRanking(rng, 6), 6)
	for k := 1; k <= 6; k++ {
		p := make(paths.Path, k)
		for i := range p {
			p[i] = rng.Intn(6)
		}
		if n := testing.AllocsPerRun(100, func() { o.Index(p) }); n != 0 {
			t.Fatalf("k=%d: Index allocates %v times per call", k, n)
		}
	}
}

// TestSumBasedIndexBeyondStackBuffers runs the heap fallback: paths longer
// than the stack buffers still index and round-trip.
func TestSumBasedIndexBeyondStackBuffers(t *testing.T) {
	const k = stackLen + 2
	o := NewSumBased(identityRanking(2), k)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		p := make(paths.Path, stackLen-1+rng.Intn(4))
		for i := range p {
			p[i] = rng.Intn(2)
		}
		assertIndexMatchesReference(t, o, p)
	}
}

// binomial returns C(n, k) for the small arguments the fuzzer sizes with.
func binomial(n, k int) int {
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}
