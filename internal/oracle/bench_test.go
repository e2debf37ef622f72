package oracle

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkSetAdd(b *testing.B) {
	s := NewSet(1 << 16)
	for i := 0; i < b.N; i++ {
		s.Add(i & (1<<16 - 1))
	}
}

func BenchmarkSetContains(b *testing.B) {
	s := NewSet(1 << 16)
	for i := 0; i < 1<<14; i++ {
		s.Add(i * 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Contains(i & (1<<16 - 1))
	}
}

func BenchmarkSetUnionWith(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := NewSet(n), NewSet(n)
			for i := 0; i < n/8; i++ {
				x.Add(rng.Intn(n))
				y.Add(rng.Intn(n))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.UnionWith(y)
			}
		})
	}
}

func BenchmarkSetCount(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := NewSet(1 << 16)
	for i := 0; i < 1<<13; i++ {
		s.Add(rng.Intn(1 << 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}

func BenchmarkRelationCompose(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			r := NewRelation(n)
			for i := 0; i < n*4; i++ {
				r.Add(rng.Intn(n), rng.Intn(n))
			}
			succ := make([]*Set, n)
			for v := 0; v < n; v++ {
				succ[v] = NewSet(n)
				for j := 0; j < 4; j++ {
					succ[v].Add(rng.Intn(n))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := r.Compose(succ)
				if out.Pairs() == 0 {
					b.Fatal("empty composition")
				}
			}
		})
	}
}

func BenchmarkRelationPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	r := NewRelation(2048)
	for i := 0; i < 8192; i++ {
		r.Add(rng.Intn(2048), rng.Intn(2048))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Pairs()
	}
}
