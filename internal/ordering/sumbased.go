package ordering

import (
	"repro/internal/combinat"
	"repro/internal/paths"
)

// SumBased is the paper's sum-based ordering rule (§3.3): the domain is
// partitioned in three stages —
//
//  1. by path length (shorter first), each stage-one partition holding
//     |L|^m positions;
//  2. within a length, by the summed rank sr = Σ rank(l_i) (lower sums
//     first), each stage-two partition holding dist(sr, m, |L|) positions
//     (Eq. 3, inclusion–exclusion over bounded compositions);
//  3. within a (length, sum) group, by the integer partition (combination)
//     of sr into m parts ≤ |L| in Formula-4 enumeration order, each
//     holding nop (Eq. 5) positions, and finally by the ascending
//     lexicographic rank of the path's rank-permutation within its
//     combination (Algorithm 1).
//
// With cardinality ranking, summed rank approximates path cardinality, so
// paths of similar selectivity land near each other — the property that
// shrinks intra-bucket variance.
//
// The stage layout depends only on (k, |L|), so the constructor
// precomputes the stage boundaries and per-group combination tables once —
// O(k²·|L|·P) memory where P is the number of bounded partitions, far
// below the O(|Lk|) the paper rules out — and, per length, a table from
// each combination's colex key (its rank among all multisets of that
// size) to its place in its group. Index then costs one group lookup, a
// sort of the k ranks, one combination lookup by key, and one permutation
// ranking (Algorithm 1 inverse), all on stack buffers: it allocates
// nothing. Path is Algorithm 2 driven by the same tables.
type SumBased struct {
	common
	// stage1[m-1] = domain offset of the length-m block.
	stage1 []int64
	// groups[m-1][sr-m] describes the (m, sr) stage-two group.
	groups [][]sumGroup
	// colex[j][r-1] = C(r-1+j, j+1), the term of rank r at position j of
	// an ascending multiset in its colex key (see key).
	colex [][]int64
	// slot[m-1][key] is the index, within its (m, sr) group's parts, of
	// the length-m combination with colex key key.
	slot [][]int32
}

// sumGroup is one stage-two partition: its absolute domain offset and its
// stage-three combinations in Formula-4 order.
type sumGroup struct {
	offset int64
	parts  []partEntry
}

// partEntry is one stage-three combination: the ascending parts, its
// permutation count (Eq. 5), and the cumulative permutation count of the
// combinations preceding it within the group.
type partEntry struct {
	parts []int64
	nop   int64
	cum   int64
}

// NewSumBased builds the sum-based ordering rule over the given ranking.
// The paper always pairs it with cardinality ranking, but any ranking is
// accepted.
func NewSumBased(rank *Ranking, k int) *SumBased {
	o := &SumBased{common: newCommon(rank, k)}
	base := int64(rank.NumLabels())
	o.stage1 = make([]int64, k)
	o.groups = make([][]sumGroup, k)
	// Pascal's rule, C(x+j, j+1) = C(x+j−1, j+1) + C(x+j−1, j): additions
	// only, of terms no larger than their sum.
	o.colex = make([][]int64, k)
	for j := range o.colex {
		row := make([]int64, base)
		for x := range row {
			switch {
			case j == 0:
				row[x] = int64(x)
			case x > 0:
				row[x] = row[x-1] + o.colex[j-1][x]
			}
		}
		o.colex[j] = row
	}
	o.slot = make([][]int32, k)
	var offset int64
	for m := int64(1); m <= int64(k); m++ {
		o.stage1[m-1] = offset
		groups := make([]sumGroup, 0, m*base-m+1)
		combos := 0
		for sr := m; sr <= m*base; sr++ {
			g := sumGroup{offset: offset}
			var cum int64
			combinat.Partitions(sr, m, base, func(parts []int64) bool {
				cp := make([]int64, len(parts))
				copy(cp, parts)
				n := combinat.NumPermutations(cp)
				g.parts = append(g.parts, partEntry{parts: cp, nop: n, cum: cum})
				cum += n
				return true
			})
			offset += cum // cum == dist(sr, m, base) by the tiling property
			groups = append(groups, g)
			combos += len(g.parts)
		}
		o.groups[m-1] = groups
		// Every length-m multiset is one group's combination, so the keys
		// tile [0, combos).
		slot := make([]int32, combos)
		for _, g := range groups {
			for i := range g.parts {
				slot[o.key(g.parts[i].parts)] = int32(i)
			}
		}
		o.slot[m-1] = slot
	}
	return o
}

// key is the colex key of an ascending multiset of m ranks in [1, |L|]:
// shifted to c_j = s_j − 1 + j it is a strictly increasing combination of
// [0, |L|+m−1), and Σ_j C(c_j, j+1) ranks those bijectively onto
// [0, C(|L|+m−1, m)), the number of length-m multisets. It cannot
// overflow: the sum over the first j+1 positions is below
// C(|L|+j, j+1), the number of multisets of size j+1 ≤ k — each of which
// the constructor has already built as a combination.
func (o *SumBased) key(sorted []int64) int64 {
	var key int64
	for j, r := range sorted {
		key += o.colex[j][r-1]
	}
	return key
}

// Name implements Ordering. The paper refers to the method simply as
// "sum-based" (cardinality ranking implied); we keep that name for the
// canonical cardinality pairing and qualify other rankings.
func (o *SumBased) Name() string {
	if o.rank.Name() == "card" {
		return MethodSumBased
	}
	return "sum-" + o.rank.Name()
}

// stackLen is the path length Index serves from stack buffers; the
// census bounds k well below it.
const stackLen = 16

// Index implements Ordering.
func (o *SumBased) Index(p paths.Path) int64 {
	o.checkPath(p)
	m := int64(len(p))

	// Rank permutation and summed rank of p.
	var permBuf, sortedBuf [stackLen]int64
	perm := permBuf[:0]
	var sr int64
	for _, l := range p {
		r := o.rank.Rank(l)
		perm = append(perm, r)
		sr += r
	}
	g := &o.groups[m-1][sr-m]

	// Locate p's combination, the multiset of perm, by its colex key.
	sorted := append(sortedBuf[:0], perm...)
	sortAscending(sorted)
	e := &g.parts[o.slot[m-1][o.key(sorted)]]
	return g.offset + e.cum + combinat.RankSorted(perm, sorted, e.nop)
}

// Path implements Ordering. This is Algorithm 2 of the paper
// (unranking_in_sumbased) followed by Algorithm 1 for the final
// permutation step, driven by the precomputed stage tables.
func (o *SumBased) Path(idx int64) paths.Path {
	o.checkIndex(idx)
	// Stage 1: find the length block (stage1 is ascending).
	m := len(o.stage1)
	for m > 1 && o.stage1[m-1] > idx {
		m--
	}
	groups := o.groups[m-1]
	// Stage 2: find the (m, sr) group by offset (ascending; linear scan is
	// fine — there are at most m·|L| groups — but binary search keeps it
	// O(log) for large alphabets).
	lo, hi := 0, len(groups)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if groups[mid].offset <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	g := &groups[lo]
	rem := idx - g.offset
	// Stage 3: find the combination, then unrank the permutation within it
	// (Algorithm 1).
	for i := range g.parts {
		e := &g.parts[i]
		if rem < e.cum+e.nop {
			perm := combinat.UnrankPermutation(rem-e.cum, e.parts)
			p := make(paths.Path, len(perm))
			for j, r := range perm {
				p[j] = o.rank.Label(r)
			}
			return p
		}
	}
	panic("ordering: sum-based unranking fell through (corrupt state)")
}

// sortAscending is insertion sort for tiny slices (length ≤ k).
func sortAscending(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
