package bitset

import (
	"maps"
	"math/rand"
	"slices"
)

// The random generators below are shared by the in-package tests and the
// external ones (package bitset_test — the tests that consult
// internal/oracle, which imports this package).

// ScaledUniverse is the universe a fuzzer draws: vertices, plus 4096 for each
// step of scale. One summary word of a ComposeScratch covers 4096 vertices,
// so three inputs in four span two to four summary words and scatter across
// the boundaries between them.
func ScaledUniverse(vertices int, scale uint8) int { return vertices + 4096*int(scale%4) }

// RandomOperand builds a CSROperand with ~m random edges over n vertices,
// mirroring graph.CSR.LabelOperand, its Active list included.
func RandomOperand(rng *rand.Rand, n, m int) CSROperand {
	adj := make(map[int]map[int]bool)
	for i := 0; i < m; i++ {
		s, t := rng.Intn(n), rng.Intn(n)
		if adj[s] == nil {
			adj[s] = make(map[int]bool)
		}
		adj[s][t] = true
	}
	op := CSROperand{N: n, Offsets: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		op.Offsets[v+1] = op.Offsets[v]
		if len(adj[v]) == 0 {
			continue
		}
		for _, t := range slices.Sorted(maps.Keys(adj[v])) {
			op.Targets = append(op.Targets, int32(t))
			op.Offsets[v+1]++
		}
	}
	return withActive(op)
}

// withActive returns op with its Active list — the rows its Offsets make
// non-empty, ascending — filled in, as graph.CSR fills it.
func withActive(op CSROperand) CSROperand {
	for v := 0; v < op.N; v++ {
		if op.Offsets[v+1] > op.Offsets[v] {
			op.Active = append(op.Active, int32(v))
		}
	}
	return op
}

// RandomHybrid draws up to pairs random pairs over n vertices and returns
// the distinct ones, in draw order, with the hybrid relation that holds
// them. density varies so rows land on both sides of the promotion
// threshold.
func RandomHybrid(rng *rand.Rand, n int, pairs int, density float64) (*HybridRelation, [][2]int) {
	seen := map[[2]int]bool{}
	var ps [][2]int
	for i := 0; i < pairs; i++ {
		p := [2]int{rng.Intn(n), rng.Intn(n)}
		if seen[p] {
			continue
		}
		seen[p] = true
		ps = append(ps, p)
	}
	// Feed the hybrid via a one-off CSR operand so row forms are chosen by
	// the same code paths production uses.
	offsets := make([]int32, n+1)
	for _, p := range ps {
		offsets[p[0]+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, len(ps))
	fill := make([]int32, n)
	for _, p := range ps {
		targets[offsets[p[0]]+fill[p[0]]] = int32(p[1])
		fill[p[0]]++
	}
	for v := 0; v < n; v++ {
		row := targets[offsets[v]:offsets[v+1]]
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j] < row[j-1]; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
	}
	return HybridFromCSR(CSROperand{N: n, Offsets: offsets, Targets: targets}, density), ps
}
