package bitset

import (
	"math/rand"
	"testing"
)

// FuzzPackedEquivalence pins the cache's stored form to the relation it
// was packed from: copied out of the snapshot, into a pooled destination
// still dirty from another relation, is bit-identical — rows, per-row
// form, active order, pairs, promotion limit — to copying the source
// itself, for sources with sparse, dense
// and empty rows (and none at all) under all three threshold regimes, a
// destination under a regime of its own; and the snapshot prices as its
// source does, without being built.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint16(200), uint8(0), uint8(0))
	f.Add(int64(2), uint8(200), uint16(3000), uint8(1), uint8(2))
	f.Add(int64(3), uint8(130), uint16(4000), uint8(2), uint8(1))
	f.Add(int64(4), uint8(1), uint16(1), uint8(1), uint8(1))
	f.Add(int64(5), uint8(90), uint16(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, vertices uint8, edges uint16, regime, dstRegime uint8) {
		n := int(vertices)
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		src := HybridFromCSR(RandomOperand(rng, n, int(edges)%8192), regimes[regime%3])
		size := src.PackedMemSize()
		p := src.Pack()
		if p.MemSize() != size {
			t.Fatalf("packed to %d bytes, priced at %d", p.MemSize(), size)
		}
		if p.CloneMemSize() != src.CloneMemSize() || p.Pairs() != src.Pairs() ||
			p.Universe() != src.n || p.sparseMax != src.sparseMax {
			t.Fatalf("snapshot reads clone size %d, %d pairs, universe %d, limit %d; source %d, %d, %d, %d",
				p.CloneMemSize(), p.Pairs(), p.Universe(), p.sparseMax,
				src.CloneMemSize(), src.Pairs(), src.n, src.sparseMax)
		}
		density := regimes[dstRegime%3]
		got, want := dirty(rng, n, density), dirty(rng, n, density)
		// The snapshot owes nothing to its source once taken.
		keep := src.Clone()
		src.Reset()
		for round := 0; round < 2; round++ { // the second onto the first's leavings
			p.CopyInto(got)
			keep.CopyInto(want)
			assertBitIdentical(t, "copied out", got, want)
			if got.sparseMax != want.sparseMax {
				t.Fatalf("copied out under limit %d, want %d", got.sparseMax, want.sparseMax)
			}
		}
	})
}

// tenPairs is the same ten pairs — two sources, five targets each — over
// an n-vertex universe.
func tenPairs(n int) *HybridRelation {
	op := CSROperand{N: n, Offsets: make([]int32, n+1), Targets: []int32{1, 2, 3, 5, 8, 0, 4, 9, 16, 25}}
	for v := 1; v <= n; v++ {
		op.Offsets[v] = min(int32(v/7+1), 2) * 5 // sources 0 and 6
	}
	return HybridFromCSR(op, 1)
}

// TestPackedCostIndependentOfUniverse is the point of the form: what an
// entry costs is its pairs and sources, not the graph it came from.
func TestPackedCostIndependentOfUniverse(t *testing.T) {
	small, large := tenPairs(100), tenPairs(1000000)
	if small.Pairs() != 10 || large.Pairs() != 10 || small.Rows().Len() != 2 {
		t.Fatalf("fixture holds %d and %d pairs over %d sources, want 10, 10, 2", small.Pairs(), large.Pairs(), small.Rows().Len())
	}
	a, b := small.Pack().MemSize(), large.Pack().MemSize()
	if a != b || a != small.PackedMemSize() || b != large.PackedMemSize() {
		t.Fatalf("ten pairs pack to %d bytes over 100 vertices and %d over a million (priced %d, %d)",
			a, b, small.PackedMemSize(), large.PackedMemSize())
	}
	if a > 256 {
		t.Fatalf("ten pairs over two sources cost %d bytes", a)
	}
	if large.CloneMemSize() < 1000000 {
		t.Fatalf("a clone over a million vertices is priced at %d bytes: the comparison lost its point", large.CloneMemSize())
	}
}

// TestPackedAllocations: a snapshot is at most five allocations whatever
// it holds, and copying it out into a destination that has held it once
// is none.
func TestPackedAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		name      string
		n, edges  int
		density   float64
		maxAllocs float64
	}{
		{"empty", 64, 0, 0, 1},
		{"one sparse row", 64, 1, 1, 4},
		{"sparse rows", 4096, 3000, 1, 4},
		{"dense rows", 256, 6000, 1e-9, 4},
		{"both", 256, 2500, 0, 5},
	} {
		src := HybridFromCSR(RandomOperand(rng, c.n, c.edges), c.density)
		var p *Packed
		if allocs := testing.AllocsPerRun(20, func() { p = src.Pack() }); allocs > c.maxAllocs {
			t.Errorf("%s: Pack of %d rows allocates %.0f times, want ≤ %.0f", c.name, src.Rows().Len(), allocs, c.maxAllocs)
		}
		dst := NewHybrid(c.n, c.density)
		p.CopyInto(dst) // warm: rows grow to their content once
		if allocs := testing.AllocsPerRun(20, func() { p.CopyInto(dst) }); allocs != 0 {
			t.Errorf("%s: CopyInto a warmed destination allocates %.0f times, want 0", c.name, allocs)
		}
	}
}

// TestPackedUniverseMismatchPanics: a snapshot is copied out only into
// its own universe.
func TestPackedUniverseMismatchPanics(t *testing.T) {
	p := tenPairs(100).Pack()
	defer func() {
		if recover() == nil {
			t.Error("CopyInto into another universe did not panic")
		}
	}()
	p.CopyInto(NewHybrid(99, 0))
}

// MemSize returns the heap footprint in bytes: the header and the four
// arrays at their lengths, which are their capacities.
func (p *Packed) MemSize() int {
	return packedMemSize(len(p.active), len(p.ids), len(p.words))
}
