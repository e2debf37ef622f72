// Package combinat implements the combinatorial machinery behind the
// sum-based histogram domain ordering of Yakovets et al. (EDBT 2018) — a
// leaf utility of the layer map (graph → bitset → paths → exec →
// pathsel), consumed by internal/paths for canonical path indexing and by
// internal/ordering for sum-based ranking:
//
//   - Partitions — ordered enumeration of integer partitions of v into
//     exactly m parts bounded by b (Eq. 4), in the paper's stage-three
//     order,
//   - NumPermutations — the number of distinct permutations of a multiset
//     (Eq. 5),
//   - permutation unranking within a combination (Algorithm 1) and its
//     inverse ranking.
//
// All quantities in the target workloads are small (k ≤ 8, |L| ≤ 64), so
// int64 arithmetic suffices; functions panic on overflow rather than return
// wrong answers.
package combinat

import (
	"fmt"
	"math"
	"math/bits"
)

// mulCheck multiplies a*b and reports overflow.
func mulCheck(a, b int64) (overflow bool, prod int64) {
	if a == 0 || b == 0 {
		return false, 0
	}
	p := a * b
	if p/b != a {
		return true, 0
	}
	return false, p
}

// Partitions enumerates the integer partitions of v into exactly m parts,
// every part in [1, b], in the paper's Formula-4 order: the outer loop
// ascends over i = number of parts equal to the current bound b (i = 0
// first), recursing with bound b−1 on the remainder. Each emitted partition
// is sorted ascending. The slice passed to emit is reused; callers must copy
// it if they retain it. Enumeration stops early when emit returns false.
//
// This exact order is what makes the stage-three domain layout of sum-based
// ordering deterministic, so it is part of the package contract and is
// pinned by golden tests (including the paper's worked example in Table 2).
func Partitions(v, m, b int64, emit func(parts []int64) bool) {
	buf := make([]int64, 0, m)
	partitionsRec(v, m, b, buf, emit)
}

// partitionsRec appends parts (all equal to bounds > current b are already
// in buf, largest last) and reports whether enumeration should continue.
func partitionsRec(v, m, b int64, buf []int64, emit func([]int64) bool) bool {
	if m == 0 {
		if v != 0 {
			return true
		}
		// buf holds parts from smallest bound to largest; emit ascending.
		out := make([]int64, len(buf))
		for i, p := range buf {
			out[len(buf)-1-i] = p
		}
		return emit(out)
	}
	// No part exceeds v−(m−1), the others being ≥ 1: the bounds above it
	// take no copies, so skipping them keeps the order and makes the walk
	// linear in the partitions emitted.
	b = min(b, v-m+1)
	if b <= 0 || v > m*b {
		return true
	}
	for i := int64(0); i*b <= v && i <= m; i++ {
		// i copies of b, recurse on the rest with bound b−1.
		next := buf
		for j := int64(0); j < i; j++ {
			next = append(next, b)
		}
		if !partitionsRec(v-i*b, m-i, b-1, next, emit) {
			return false
		}
	}
	return true
}

// stackParts is the multiset size NumPermutations and RankPermutation
// serve from a stack buffer; longer inputs fall back to the heap. Path
// lengths are census-bounded (k ≤ 8), so the lookup path never allocates.
const stackParts = 16

// NumPermutations returns the number of distinct permutations of the
// multiset parts (Eq. 5): |parts|! / Π_i d_i! where d_i is the multiplicity
// of value i. parts need not be sorted. It panics exactly when the result
// overflows int64.
func NumPermutations(parts []int64) int64 {
	if !isSorted(parts) {
		var buf [stackParts]int64
		sorted := append(buf[:0], parts...)
		sortInt64(sorted)
		parts = sorted
	}
	return numPermutationsSorted(parts)
}

// numPermutationsSorted is NumPermutations over an ascending multiset. It
// builds n!/Πd_i! incrementally — treat the multiset as a sequence of
// draws, r *= position / (draws of this value so far) — visiting the value
// classes as the sorted runs they are. Every intermediate r is the
// permutation count of a sub-multiset, so it never exceeds the result; the
// one product that can, r·position, is held in 128 bits. The value is
// therefore returned whenever it fits, independent of class order.
func numPermutationsSorted(parts []int64) int64 {
	var r, pos uint64 = 1, 0
	for i := 0; i < len(parts); {
		j := i
		for j < len(parts) && parts[j] == parts[i] {
			j++
		}
		for d := uint64(1); d <= uint64(j-i); d++ {
			pos++
			hi, lo := bits.Mul64(r, pos)
			if hi >= d {
				panic("combinat: NumPermutations overflows int64")
			}
			if r, _ = bits.Div64(hi, lo, d); r > math.MaxInt64 {
				panic("combinat: NumPermutations overflows int64")
			}
		}
		i = j
	}
	return int64(r)
}

// UnrankPermutation returns the index-th (0-based) distinct permutation of
// the multiset parts, in ascending lexicographic order. parts must be
// sorted ascending. It returns nil when index is out of range. This is
// Algorithm 1 of the paper; the block size below a candidate leading
// element x is computed in O(1) from the identity
//
//	nop(S \ {x}) = nop(S) · d_x / |S|
//
// instead of re-deriving Eq. 5 per step, so the whole unranking is O(k²)
// with a single output allocation.
func UnrankPermutation(index int64, parts []int64) []int64 {
	nop := NumPermutations(parts)
	if index < 0 || index >= nop {
		return nil
	}
	remaining := make([]int64, len(parts))
	copy(remaining, parts)
	n := int64(len(remaining))
	out := make([]int64, 0, len(parts))
	for n > 0 {
		i := 0
		for {
			// Count duplicates of the candidate leading element.
			v := remaining[i]
			d := int64(0)
			j := i
			for j < len(remaining) && remaining[j] == v {
				d++
				j++
			}
			block := nop * d / n
			if index >= block {
				index -= block
				i = j
				continue
			}
			out = append(out, v)
			nop = block
			n--
			// Remove one occurrence of v, keeping the slice sorted.
			copy(remaining[i:], remaining[i+1:])
			remaining = remaining[:len(remaining)-1]
			break
		}
	}
	return out
}

// RankPermutation is the inverse of UnrankPermutation: it returns the
// 0-based position of perm among the distinct ascending-lexicographic
// permutations of its own multiset. perm need not be sorted. It panics if
// perm is empty. Up to stackParts elements it allocates nothing.
func RankPermutation(perm []int64) int64 {
	if len(perm) == 0 {
		panic("combinat: RankPermutation of empty permutation")
	}
	var buf [stackParts]int64
	sorted := append(buf[:0], perm...)
	sortInt64(sorted)
	return RankSorted(perm, sorted, numPermutationsSorted(sorted))
}

// RankSorted is RankPermutation for a caller that already holds perm's
// multiset: sorted, its elements ascending — consumed as scratch — and
// nop = NumPermutations(sorted). Like UnrankPermutation it uses the O(1)
// block-size identity nop(S \ {x}) = nop(S)·d_x/|S|, and because the
// blocks below a leading element v are exact integers their sum is
// nop(S)·|{x ∈ S : x < v}|/|S| — two exact quotients per position, each a
// multiply (divExact), and O(k²) only in the element moves. It panics if
// perm is not a permutation of sorted.
func RankSorted(perm, sorted []int64, nop int64) int64 {
	if len(perm) != len(sorted) {
		panic("combinat: RankSorted of mismatched multiset")
	}
	var rank int64
	for n, v := range perm {
		// sorted[n:] is what remains to place; less counts its elements
		// below v, d its copies of v.
		rest := sorted[n:]
		less := 0
		for less < len(rest) && rest[less] < v {
			less++
		}
		d := 0
		for less+d < len(rest) && rest[less+d] == v {
			d++
		}
		if d == 0 {
			panic("combinat: RankSorted of mismatched multiset")
		}
		rank += divExact(nop*int64(less), len(rest))
		nop = divExact(nop*int64(d), len(rest))
		// Remove one copy of v by shifting the smaller elements up one
		// slot: the remainder stays sorted, now at sorted[n+1:].
		for i := less; i > 0; i-- {
			rest[i] = rest[i-1]
		}
	}
	return rank
}

// oddInverse[s] is the inverse modulo 2^64 of the odd part of s.
var oddInverse = func() (t [stackParts + 1]uint64) {
	for s := 1; s < len(t); s++ {
		odd := uint64(s) >> bits.TrailingZeros(uint(s))
		inv := odd // right to 3 bits; each Newton step doubles that
		for i := 0; i < 5; i++ {
			inv *= 2 - odd*inv
		}
		t[s] = inv
	}
	return t
}()

// divExact is x/s for a non-negative x that s divides: x = q·odd·2^t, so
// shifting out 2^t loses no bit, and multiplying by odd's inverse modulo
// 2^64 leaves q — a multiply where a 64-bit division costs tens of cycles.
// Divisors past the table divide.
func divExact(x int64, s int) int64 {
	if s < len(oddInverse) {
		return int64((uint64(x) >> bits.TrailingZeros(uint(s))) * oddInverse[s])
	}
	return x / int64(s)
}

func isSorted(s []int64) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// sortInt64 is insertion sort; inputs have length ≤ k (tiny).
func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Pow returns base^exp for non-negative exp, panicking on overflow.
func Pow(base, exp int64) int64 {
	if exp < 0 {
		panic("combinat: negative exponent")
	}
	var r int64 = 1
	for i := int64(0); i < exp; i++ {
		hi, p := mulCheck(r, base)
		if hi {
			panic(fmt.Sprintf("combinat: Pow(%d,%d) overflows int64", base, exp))
		}
		r = p
	}
	return r
}

// GeometricSum returns Σ_{i=1..k} base^i, the number of non-empty sequences
// of length ≤ k over a base-sized alphabet — i.e. |Lk|.
func GeometricSum(base, k int64) int64 {
	var total int64
	for i := int64(1); i <= k; i++ {
		total += Pow(base, i)
	}
	return total
}
