package bitset

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file holds the executor-facing HybridRelation operations — reversal
// and row-wise union — added when query execution (internal/exec,
// paths.Evaluate, paths.UnionSelectivity) moved off the dense Relation
// (now internal/oracle's) onto the hybrid substrate. The census engine needs only
// ComposeInto (hybrid.go); the executor additionally reverses relations
// (to grow a zig-zag join leftward via predecessor operands), and
// paths.UnionSelectivity unions them (to answer disjunction queries under
// set semantics). The executor never unions: an RPQ's ε and skip are terms
// of its steps (Extend, step.go).

// ReverseInto computes the inverse relation into dst: (t, s) ∈ dst for
// every (s, t) ∈ h. dst is reset first and its rows are reused in place,
// so a pooled destination makes steady-state reversal allocation-free
// apart from one transient per-universe count array. h and dst must be
// distinct objects over the same universe.
func (h *HybridRelation) ReverseInto(dst *HybridRelation) {
	if dst == h {
		panic("bitset: ReverseInto aliasing dst == receiver")
	}
	if dst.n != h.n {
		panic(fmt.Sprintf("bitset: ReverseInto universe %d != %d", dst.n, h.n))
	}
	dst.reverseFrom(rowSource{h: h}, h.pairs)
}

// reverseFrom is the two-pass reversal kernel behind both ReverseInto
// methods: h becomes the inverse of src's pairs. Each output row picks
// its sparse or dense form up front from an exact count, so no row is
// built twice; the one transient is the per-universe count array.
func (h *HybridRelation) reverseFrom(src rowSource, pairs int64) {
	h.Reset()
	if pairs == 0 {
		return
	}
	// Pass 1: per-target counts fix every output row's final population,
	// and therefore its representation, before any id is written.
	counts := make([]int32, h.n)
	active := src.active()
	for i, s := range active {
		_, ids, words := src.row(i, s)
		for wi, w := range words {
			for w != 0 {
				counts[wi*wordBits+bits.TrailingZeros64(w)]++
				w &= w - 1
			}
		}
		for _, t := range ids {
			counts[t]++
		}
	}
	for t, c := range counts {
		if c == 0 {
			continue
		}
		row := &h.rows[t]
		row.count = c
		if int(c) > h.sparseMax {
			row.dense = true
			if row.words == nil {
				row.words = make([]uint64, wordsFor(h.n))
			} else {
				clear(row.words)
			}
		} else {
			row.ids = slices.Grow(row.ids[:0], int(c))
		}
		h.active = append(h.active, int32(t))
		h.pairs += int64(c)
	}
	// Pass 2: pairs arrive in ascending (s, t) order, so per output row t
	// the sources s arrive ascending and sparse appends stay sorted.
	for i, s := range active {
		_, ids, words := src.row(i, s)
		for wi, w := range words {
			for w != 0 {
				h.rows[wi*wordBits+bits.TrailingZeros64(w)].add(s)
				w &= w - 1
			}
		}
		for _, t := range ids {
			h.rows[t].add(s)
		}
	}
}

// add appends source s to a row reverseFrom has shaped; sources arrive
// ascending.
func (row *hrow) add(s int32) {
	if row.dense {
		row.words[s>>6] |= 1 << (uint(s) & 63)
	} else {
		row.ids = append(row.ids, s)
	}
}

// Equal reports whether h and o contain exactly the same pairs,
// regardless of per-row representation or density threshold.
func (h *HybridRelation) Equal(o *HybridRelation) bool {
	if h.n != o.n || h.pairs != o.pairs {
		return false
	}
	equal := true
	h.ForEachPair(func(s, t int) bool {
		if !o.Contains(s, t) {
			equal = false
		}
		return equal
	})
	return equal
}

// UnionWith sets h to h ∪ o row by row: sparse rows merge sorted id lists,
// dense rows union word-parallel, and a row whose merged population
// crosses h's threshold promotes to dense in place (union never demotes —
// populations only grow). Both relations must share a universe; o is left
// untouched. This is the set-semantics accumulation step of
// paths.UnionSelectivity.
func (h *HybridRelation) UnionWith(o *HybridRelation) {
	if o.n != h.n {
		panic(fmt.Sprintf("bitset: UnionWith universe %d != %d", o.n, h.n))
	}
	if o == h || o.pairs == 0 {
		return
	}
	var merged []int32 // scratch for sparse∪sparse, reused across rows
	old := len(h.active)
	for _, s := range o.active {
		src := &o.rows[s]
		row := &h.rows[s]
		before := row.count
		switch {
		case row.count == 0:
			// Fresh row: copy src's representation verbatim.
			row.count = src.count
			if src.dense {
				row.dense = true
				if row.words == nil {
					row.words = make([]uint64, len(src.words))
				}
				copy(row.words, src.words)
			} else {
				row.ids = append(row.ids[:0], src.ids...)
			}
			h.active = append(h.active, s)
		case row.dense && src.dense:
			n := 0
			for i, w := range src.words {
				row.words[i] |= w
				n += bits.OnesCount64(row.words[i])
			}
			row.count = int32(n)
		case row.dense: // src sparse
			for _, t := range src.ids {
				wi, bit := t>>6, uint64(1)<<(uint(t)&63)
				if row.words[wi]&bit == 0 {
					row.words[wi] |= bit
					row.count++
				}
			}
		case src.dense: // row sparse: promote, then OR
			ids := row.ids
			if row.words == nil {
				row.words = make([]uint64, len(src.words))
				copy(row.words, src.words)
			} else {
				copy(row.words, src.words)
			}
			row.dense = true
			row.ids = ids[:0]
			for _, t := range ids {
				row.words[t>>6] |= 1 << (uint(t) & 63)
			}
			n := 0
			for _, w := range row.words {
				n += bits.OnesCount64(w)
			}
			row.count = int32(n)
		default: // both sparse: linear merge of two sorted lists
			merged = merged[:0]
			a, b := row.ids, src.ids
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					merged = append(merged, a[i])
					i++
				case a[i] > b[j]:
					merged = append(merged, b[j])
					j++
				default:
					merged = append(merged, a[i])
					i++
					j++
				}
			}
			merged = append(merged, a[i:]...)
			merged = append(merged, b[j:]...)
			row.count = int32(len(merged))
			if len(merged) > h.sparseMax {
				// Crossed the density threshold: promote in place.
				if row.words == nil {
					row.words = make([]uint64, wordsFor(h.n))
				} else {
					clear(row.words)
				}
				for _, t := range merged {
					row.words[t>>6] |= 1 << (uint(t) & 63)
				}
				row.dense = true
				row.ids = row.ids[:0]
			} else {
				row.ids = append(row.ids[:0], merged...)
			}
		}
		h.pairs += int64(row.count - before)
	}
	mergeAppended(h.active, old, merged[:0])
}

// mergeAppended restores the ascending-source invariant of a = a[:old]
// followed by an appended run, both ascending and disjoint — UnionWith's
// new sources arrive in o's active order — by one linear merge in place.
// The run is parked in buf (transient: the list itself keeps no spare
// capacity for it) and merged backwards; sources that all sort after the
// old ones, the append-only case, cost one comparison.
func mergeAppended(a []int32, old int, buf []int32) {
	if old == 0 || old == len(a) || a[old-1] < a[old] {
		return
	}
	run := append(buf, a[old:]...)
	i, k := old-1, len(a)-1
	for j := len(run) - 1; j >= 0; j-- {
		for i >= 0 && a[i] > run[j] {
			a[k] = a[i]
			k--
			i--
		}
		a[k] = run[j]
		k--
	}
}
