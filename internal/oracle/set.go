package oracle

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, Len()). The zero value is an
// empty set of capacity zero; use NewSet to allocate capacity.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// NewSet returns an empty set with capacity for n bits. It panics if n is
// negative.
func NewSet(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("oracle: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// check panics when i is outside the capacity.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("oracle: index %d out of range [0,%d)", i, s.n))
	}
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("oracle: capacity mismatch %d != %d", s.n, o.n))
	}
}

// UnionWith sets s to s ∪ o.
func (s *Set) UnionWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Equal reports whether s and o contain exactly the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order. It stops early if
// fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// String renders the set as {a, b, c} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
