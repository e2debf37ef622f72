package oracle

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := NewSet(100)
	if s.n != 100 {
		t.Fatalf("capacity %d, want 100", s.n)
	}
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", s.Count())
	}
}

func TestNewZeroCapacity(t *testing.T) {
	s := NewSet(0)
	if s.Count() != 0 || !s.Empty() {
		t.Fatal("zero-capacity set should be empty")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSet(-1) should panic")
		}
	}()
	NewSet(-1)
}

func TestAddContainsRemove(t *testing.T) {
	s := NewSet(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("Contains(%d) before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("!Contains(%d) after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := NewSet(10)
	s.Add(3)
	s.Add(3)
	if s.Count() != 1 {
		t.Fatalf("Count() = %d after double Add, want 1", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := NewSet(10)
	for name, fn := range map[string]func(){
		"Add(10)":       func() { s.Add(10) },
		"Add(-1)":       func() { s.Add(-1) },
		"Contains(10)":  func() { s.Contains(10) },
		"Contains(-5)":  func() { s.Contains(-5) },
		"Add(overflow)": func() { s.Add(1 << 40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSet(64)
	s.Add(5)
	c := s.Clone()
	if !c.Equal(s) {
		t.Fatal("clone not equal to original")
	}
	c.Add(6)
	if s.Contains(6) {
		t.Fatal("mutating clone affected original")
	}
}

func TestSetAlgebra(t *testing.T) {
	mk := func(xs ...int) *Set {
		s := NewSet(100)
		for _, x := range xs {
			s.Add(x)
		}
		return s
	}
	u := mk(1, 2, 3)
	u.UnionWith(mk(3, 4))
	if !u.Equal(mk(1, 2, 3, 4)) {
		t.Fatalf("union = %v", u)
	}
}

func TestEqualDifferentCapacity(t *testing.T) {
	if NewSet(10).Equal(NewSet(11)) {
		t.Fatal("sets with different capacity must not be Equal")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := NewSet(200)
	want := []int{0, 63, 64, 100, 199}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
	var n int
	s.ForEach(func(int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

func TestString(t *testing.T) {
	s := NewSet(10)
	s.Add(1)
	s.Add(7)
	if got := s.String(); got != "{1, 7}" {
		t.Fatalf("String() = %q", got)
	}
	if got := NewSet(4).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

// Property: Count equals the number of distinct indices added.
func TestQuickCountMatchesDistinct(t *testing.T) {
	f := func(idx []uint16) bool {
		s := NewSet(1 << 16)
		seen := map[uint16]bool{}
		for _, i := range idx {
			s.Add(int(i))
			seen[i] = true
		}
		return s.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: union is commutative.
func TestQuickAlgebraLaws(t *testing.T) {
	gen := func(r *rand.Rand, n int) *Set {
		s := NewSet(n)
		for i := 0; i < n/4; i++ {
			s.Add(r.Intn(n))
		}
		return s
	}
	r := rand.New(rand.NewSource(42))
	const n = 257
	for trial := 0; trial < 200; trial++ {
		a, b := gen(r, n), gen(r, n)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		if !ab.Equal(ba) {
			t.Fatal("union not commutative")
		}
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}
