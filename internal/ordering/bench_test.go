package ordering

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/paths"
)

// benchOrderings builds the three ordering rules over a fixed cardinality
// ranking at the given scale.
func benchOrderings(numLabels, k int) []Ordering {
	rng := rand.New(rand.NewSource(9))
	freq := make([]int64, numLabels)
	for i := range freq {
		freq[i] = int64(rng.Intn(100000))
	}
	card := CardinalityRanking(freq, paddedNames(numLabels))
	return []Ordering{
		NewNumerical(card, k),
		NewLexicographic(card, k),
		NewSumBased(card, k),
	}
}

// BenchmarkIndexByK isolates how (un)ranking cost scales with the path
// length bound — the complexity claim of the paper's §3.2/§3.3 (O(k) for
// numerical/lexicographic; higher for sum-based).
func BenchmarkIndexByK(b *testing.B) {
	const numLabels = 6
	for _, k := range []int{2, 4, 6, 8} {
		for _, ord := range benchOrderings(numLabels, k) {
			queries := make([]paths.Path, 256)
			rng := rand.New(rand.NewSource(11))
			for i := range queries {
				queries[i] = ord.Path(rng.Int63n(ord.Size()))
			}
			b.Run(fmt.Sprintf("%s/k=%d", ord.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = ord.Index(queries[i%len(queries)])
				}
			})
		}
	}
}

func BenchmarkUnrankByK(b *testing.B) {
	const numLabels = 6
	for _, k := range []int{2, 4, 6, 8} {
		for _, ord := range benchOrderings(numLabels, k) {
			b.Run(fmt.Sprintf("%s/k=%d", ord.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = ord.Path(int64(i) % ord.Size())
				}
			})
		}
	}
}

// BenchmarkSumBasedConstruction measures the one-time stage-table build.
func BenchmarkSumBasedConstruction(b *testing.B) {
	for _, cfg := range []struct{ l, k int }{{6, 6}, {8, 6}, {16, 8}} {
		rank := identityRanking(cfg.l)
		b.Run(fmt.Sprintf("L=%d/k=%d", cfg.l, cfg.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = NewSumBased(rank, cfg.k)
			}
		})
	}
}

// BenchmarkMaterializedBuild measures the O(|Lk|) cost of materialized
// orderings (ideal, sum-L2, product) that the closed-form rules avoid.
func BenchmarkMaterializedBuild(b *testing.B) {
	for _, cfg := range []struct{ l, k int }{{6, 4}, {6, 6}} {
		b.Run(fmt.Sprintf("L=%d/k=%d", cfg.l, cfg.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = NewMaterialized("bench", cfg.l, cfg.k, func(can int64) int64 { return -can })
			}
		})
	}
}
