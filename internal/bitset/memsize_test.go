package bitset

import (
	"math/rand"
	"testing"
	"unsafe"
)

// MemSize returns the exact heap footprint of the relation in bytes: the
// struct header, the row-header array (one hrow per universe vertex), the
// active-source index, and every row's sparse id list and dense word
// array at their allocated capacities. Demoted rows that retain a dirty
// dense word array are charged for it — the memory is still held. It is
// the reference CloneMemSize's pricing is checked against.
func (h *HybridRelation) MemSize() int {
	size := int(unsafe.Sizeof(*h)) + cap(h.active)*4 + len(h.rows)*int(unsafe.Sizeof(hrow{}))
	for i := range h.rows {
		size += cap(h.rows[i].ids)*4 + cap(h.rows[i].words)*8
	}
	return size
}

func TestMemSizeExactAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 64, 65, 300} {
		for _, density := range []float64{1e-9, 0.03125, 0.5, 1.0} {
			op := RandomOperand(rng, n, n*3)
			h := HybridFromCSR(op, density)
			// Reset keeps capacity, so the footprint must not shrink.
			before := h.MemSize()
			h.Reset()
			if after := h.MemSize(); after != before {
				t.Fatalf("n=%d density=%v: MemSize changed across Reset: %d -> %d",
					n, density, before, after)
			}
		}
	}
}

func TestMemSizeComponents(t *testing.T) {
	// An empty relation is headers only.
	h := NewHybrid(100, 0)
	base := int(unsafe.Sizeof(HybridRelation{})) + 100*int(unsafe.Sizeof(hrow{}))
	if got := h.MemSize(); got != base {
		t.Fatalf("empty relation MemSize %d, want %d", got, base)
	}
	// One sparse row: + active entry + ids capacity.
	op := CSROperand{N: 100, Offsets: make([]int32, 101)}
	for v := 1; v <= 100; v++ {
		op.Offsets[v] = 2 // all edges from vertex 0
	}
	op.Targets = []int32{3, 7}
	s := HybridFromCSR(op, 1.0) // everything sparse
	want := base + cap(s.active)*4 + cap(s.rows[0].ids)*4
	if got := s.MemSize(); got != want {
		t.Fatalf("sparse relation MemSize %d, want %d", got, want)
	}
	// A dense row is charged for its word array.
	d := HybridFromCSR(op, 1e-9) // everything dense
	want = base + cap(d.active)*4 + cap(d.rows[0].words)*8
	if got := d.MemSize(); got != want {
		t.Fatalf("dense relation MemSize %d, want %d", got, want)
	}
}

func TestCloneExactSizeReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 64, 200} {
		for _, density := range []float64{1e-9, 0.1, 1.0} {
			op := RandomOperand(rng, n, n*4)
			h := HybridFromCSR(op, density)
			c := h.Clone()
			if !c.Equal(h) {
				t.Fatalf("n=%d density=%v: clone pairs differ", n, density)
			}
			if c.sparseMax != h.sparseMax || c.n != h.n {
				t.Fatalf("n=%d density=%v: clone regime differs", n, density)
			}
			for v := 0; v < n; v++ {
				if c.RowDense(v) != h.RowDense(v) || c.RowCount(v) != h.RowCount(v) {
					t.Fatalf("n=%d density=%v: row %d representation differs", n, density, v)
				}
			}
			// CloneMemSize prices the clone without building it.
			cloneSize := h.CloneMemSize()
			// The clone is private: resetting the original must not touch it.
			pairs := c.Pairs()
			h.Reset()
			if c.Pairs() != pairs || !c.Equal(HybridFromCSR(op, density)) {
				t.Fatalf("n=%d density=%v: clone shares storage with original", n, density)
			}
			// Exact-size: every slice trimmed to its content.
			tight := int(unsafe.Sizeof(*c)) + len(c.active)*4 + len(c.rows)*int(unsafe.Sizeof(hrow{}))
			for i := range c.rows {
				tight += len(c.rows[i].ids)*4 + len(c.rows[i].words)*8
			}
			if got := c.MemSize(); got != tight {
				t.Fatalf("n=%d density=%v: clone MemSize %d, tight %d", n, density, got, tight)
			}
			if cloneSize != tight {
				t.Fatalf("n=%d density=%v: CloneMemSize %d, actual clone occupies %d", n, density, cloneSize, tight)
			}
		}
	}
}

func TestCopyIntoReplicaAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 64, 200} {
		src := HybridFromCSR(RandomOperand(rng, n, n*4), 0.1)
		// dst built at a different threshold: CopyInto must still replicate
		// src's representations (it adopts src's promotion limit).
		dst := NewHybrid(n, 1.0)
		src.CopyInto(dst)
		if !dst.Equal(src) || dst.sparseMax != src.sparseMax {
			t.Fatalf("n=%d: CopyInto not a replica", n)
		}
		for v := 0; v < n; v++ {
			if dst.RowDense(v) != src.RowDense(v) || dst.RowCount(v) != src.RowCount(v) {
				t.Fatalf("n=%d: row %d representation differs after CopyInto", n, v)
			}
		}
		// Reuse: copying a second, different relation into the same buffer
		// fully replaces the first.
		src2 := HybridFromCSR(RandomOperand(rng, n, n*2), 0.1)
		src2.CopyInto(dst)
		if !dst.Equal(src2) {
			t.Fatalf("n=%d: CopyInto reuse left stale state", n)
		}
		// The copy is independent of the source's storage.
		src2.Reset()
		if dst.Pairs() == 0 && n > 1 {
			t.Fatalf("n=%d: CopyInto aliased the source", n)
		}
	}
}

func TestSparseLimitMatchesNewHybrid(t *testing.T) {
	for _, n := range []int{1, 10, 64, 1000} {
		for _, density := range []float64{-1, 0, 1e-9, 1.0 / 32, 0.5, 1, 2} {
			h := NewHybrid(n, density)
			if got, want := SparseLimit(n, density), h.sparseMax; got != want {
				t.Fatalf("n=%d density=%v: SparseLimit %d != relation sparseMax %d",
					n, density, got, want)
			}
		}
	}
}
