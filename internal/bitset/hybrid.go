package bitset

import (
	"fmt"
	"math/bits"
	"slices"
)

const wordBits = 64

// wordsFor is the number of words a bit array over [0, n) takes: a dense
// row's storage, a scratch accumulator's.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// DefaultDensityThreshold is the fraction of the vertex universe at which a
// sparse row promotes to the dense word-array form. At count = |V|/32 the
// sorted-int32 form and the dense form occupy the same memory (32 bits per
// id vs 1 bit per universe slot), so the default promotes exactly at the
// memory crossover.
const DefaultDensityThreshold = 1.0 / 32

// CSROperand is one edge label's adjacency as CSR arrays: every step
// kernel scatters a target's successors from them, whatever the shape of
// the left row that reached it. All slices are read-only shared views.
type CSROperand struct {
	N       int     // vertex universe size
	Offsets []int32 // len N+1; Targets[Offsets[v]:Offsets[v+1]] = successors of v, ascending
	Targets []int32
	// Active lists the vertices with at least one successor, ascending —
	// the operand's relation's active sources, known without a pass.
	// graph.CSR fills it in, and Rows iterates it, as a relation's rows
	// iterate its active list: a step whose left rows are the operand's own
	// visits its non-empty rows only, and shards by their number.
	Active []int32
}

// hrow is one source row of a HybridRelation: either a sorted sparse id
// list or a dense word array, never both, with its population count cached
// so distinct-pair counting never rescans words.
type hrow struct {
	ids   []int32  // sparse form: target ids, ascending; nil/empty when dense
	words []uint64 // dense form; retained (dirty) across reuses and fully overwritten on each dense fill
	count int32
	dense bool
}

// HybridRelation is a binary relation over [0, n) whose rows adaptively
// switch between a sparse sorted-id representation and a dense bit-set
// representation at a configurable density threshold. It is the pooled,
// allocation-free-in-steady-state substrate of the census engine: rows and
// the active-source list keep their capacity across Reset, and compose
// kernels write into a destination relation instead of allocating one.
type HybridRelation struct {
	n         int
	sparseMax int // rows with count ≤ sparseMax stay sparse
	rows      []hrow
	active    []int32 // sources with ≥1 target, ascending after compose
	pairs     int64   // Σ row counts, maintained incrementally
}

// sparseLimit converts a density threshold (fraction of n) into the
// maximum sparse row count. A non-positive threshold selects the default;
// thresholds ≥ 1 disable promotion entirely.
func sparseLimit(n int, density float64) int {
	if density <= 0 {
		density = DefaultDensityThreshold
	}
	if density >= 1 {
		return n
	}
	m := int(density * float64(n))
	if m < 1 {
		m = 1
	}
	return m
}

// NewHybrid returns an empty hybrid relation over an n-vertex universe.
// density is the promotion threshold as a fraction of n (≤ 0 selects
// DefaultDensityThreshold, ≥ 1 keeps every row sparse).
func NewHybrid(n int, density float64) *HybridRelation {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative universe %d", n))
	}
	return &HybridRelation{n: n, sparseMax: sparseLimit(n, density), rows: make([]hrow, n)}
}

// HybridFromCSR builds the length-1 path relation of one label directly
// from its CSR operand: row v holds op's successors of v, sparse or dense
// per the threshold. Target slices are copied, never aliased, so the
// relation can be pooled and its rows rewritten without corrupting the
// operand.
func HybridFromCSR(op CSROperand, density float64) *HybridRelation {
	h := NewHybrid(op.N, density)
	h.FillFromCSR(op)
	return h
}

// FillFromCSR fills h with the length-1 path relation of one label — the
// pooled form of HybridFromCSR: h is Reset first and its row storage is
// reused in place, so executions drawing their buffers from a pool start
// a query without allocating. h's universe must equal op.N.
func (h *HybridRelation) FillFromCSR(op CSROperand) {
	if op.N != h.n {
		panic(fmt.Sprintf("bitset: operand universe %d != relation universe %d", op.N, h.n))
	}
	h.Reset()
	for v := 0; v < op.N; v++ {
		ts := op.Targets[op.Offsets[v]:op.Offsets[v+1]]
		if len(ts) == 0 {
			continue
		}
		h.setRow(v, ts)
		h.active = append(h.active, int32(v))
		h.pairs += int64(len(ts))
	}
}

// setRow stores the ascending target list ts, non-empty, as row v of a
// relation whose row v is in its Reset state.
func (h *HybridRelation) setRow(v int, ts []int32) {
	row := &h.rows[v]
	row.count = int32(len(ts))
	if len(ts) <= h.sparseMax {
		row.ids = append(row.ids[:0], ts...)
		return
	}
	row.dense = true
	if row.words == nil {
		row.words = make([]uint64, wordsFor(h.n))
	} else {
		clear(row.words)
	}
	for _, t := range ts {
		row.words[t>>6] |= 1 << (uint(t) & 63)
	}
}

// unionRow is the accumulate half of one row of a label-set base: given
// vertex v's successors under the first operand, it gathers those under
// the rest and returns the count of them all. A row only one operand
// contributes to is returned as first, that operand's own target list, with
// the accumulator untouched; once a second one shows up everything is
// scattered, first is nil, and the caller resets the accumulator after
// reading the row.
func (scr *ComposeScratch) unionRow(first []int32, rest []CSROperand, v int) ([]int32, int) {
	count := len(first)
	for i := range rest {
		ts := rest[i].Targets[rest[i].Offsets[v]:rest[i].Offsets[v+1]]
		switch {
		case len(ts) == 0:
		case count == 0:
			first, count = ts, len(ts)
		case first != nil:
			count = scr.scatter(first) + scr.scatter(ts)
			first = nil
		default:
			count += scr.scatter(ts)
		}
	}
	return first, count
}

// Pairs returns the total number of distinct pairs. O(1): per-row counts
// are cached at construction time.
func (h *HybridRelation) Pairs() int64 { return h.pairs }

// RowCount returns the cached target count of source s.
func (h *HybridRelation) RowCount(s int) int { return int(h.rows[s].count) }

// RowDense reports whether source s is currently in dense form.
func (h *HybridRelation) RowDense(s int) bool { return h.rows[s].dense }

// Contains reports whether the pair (s, t) is present.
func (h *HybridRelation) Contains(s, t int) bool {
	row := &h.rows[s]
	if row.count == 0 {
		return false
	}
	if row.dense {
		return row.words[t>>6]&(1<<(uint(t)&63)) != 0
	}
	_, ok := slices.BinarySearch(row.ids, int32(t))
	return ok
}

// Reset empties the relation while keeping row and list capacity, at a
// cost of one touch per listed row — O(1) on an empty relation. A pool
// calls it when a relation is released, while the rows it clears are
// still warm (exec.RelPool.Put); a kernel calls it on its destination,
// which is then free when the relation came from a pool. Dense word
// arrays are left dirty; every dense fill overwrites them in full.
func (h *HybridRelation) Reset() {
	for _, s := range h.active {
		row := &h.rows[s]
		row.count = 0
		row.dense = false
		row.ids = row.ids[:0]
	}
	h.active = h.active[:0]
	h.pairs = 0
}

// Clear is Reset over every row, listed or not: it readies for reuse a
// relation whose rows may have been written without being listed — the
// destination of a step that panicked mid-shard — which Reset would leave
// holding them. It costs a pass over all n rows.
func (h *HybridRelation) Clear() {
	for s := range h.rows {
		row := &h.rows[s]
		row.count = 0
		row.dense = false
		row.ids = row.ids[:0]
	}
	h.active = h.active[:0]
	h.pairs = 0
}

// ForEachPair calls fn for every pair in ascending (s, t) order; it stops
// early when fn returns false.
func (h *HybridRelation) ForEachPair(fn func(s, t int) bool) {
	for _, s := range h.active {
		row := &h.rows[s]
		if row.dense {
			for wi, w := range row.words {
				for w != 0 {
					if !fn(int(s), wi*wordBits+bits.TrailingZeros64(w)) {
						return
					}
					w &= w - 1
				}
			}
		} else {
			for _, t := range row.ids {
				if !fn(int(s), int(t)) {
					return
				}
			}
		}
	}
}

// ComposeScratch is the per-worker accumulator of the step kernels
// (Gilbert, Moler & Schreiber's sparse accumulator): a dense bitmap plus a
// summary with one bit per bitmap word, set when the word may be non-zero.
// Emitting or resetting a row walks the summary in ascending order, so it
// costs O(|V|/4096 + touched words) and the touched words need no sort.
type ComposeScratch struct {
	words []uint64
	sum   []uint64 // bit wi set ⇔ words[wi] may be non-zero

	// Lazily allocated on first use, by the join only: the full-width
	// accumulator of output rows with a dense right-side input, and the
	// expansion buffer of its dense or eps left rows.
	wide []uint64
	tbuf []int32

	// Cooperative cancellation state (cancel.go): the attached flag and
	// the remaining work budget of the current amortization window.
	cancel       *CancelFlag
	cancelBudget int
}

// NewComposeScratch returns a scratch accumulator for an n-vertex universe.
func NewComposeScratch(n int) *ComposeScratch {
	w := wordsFor(n)
	return &ComposeScratch{words: paddedWords(w), sum: paddedWords(wordsFor(w))}
}

// paddedWords returns k zero words in an allocation of whole 64-byte cache
// lines. Every scatter stores into the accumulator and its summary, and
// workers' scratches are allocated back to back: a bare 16-byte summary
// would share a line with another worker's.
func paddedWords(k int) []uint64 {
	return make([]uint64, k, (k+7)&^7)
}

// reset zeroes the words the summary marks, and the summary.
func (scr *ComposeScratch) reset() {
	for si, sw := range scr.sum {
		for ; sw != 0; sw &= sw - 1 {
			scr.words[si*wordBits+bits.TrailingZeros64(sw)] = 0
		}
		scr.sum[si] = 0
	}
}

// scatter is the accumulate step the summarized kernels share: it adds one
// target list to the accumulator and returns how many of the targets were
// new to it. It has no branch per target.
func (scr *ComposeScratch) scatter(ts []int32) int {
	words, sum := scr.words, scr.sum
	count := 0
	for _, u := range ts {
		wi, b := uint(u)>>6, uint(u)&63
		w := words[wi]
		count += int(^w >> b & 1)
		words[wi] = w | 1<<b
		sum[wi>>6] |= 1 << (wi & 63)
	}
	return count
}

// push is the compose kernel's accumulate half: it scatters, under every
// operand — one is a compose step, several compose through the union of
// their labels — the CSR row of each target of a left row: s when eps makes
// it one, then the row's ids or a dense row's set bits, enumerated in
// place. Returns the number of distinct targets accumulated. Cost is
// O(|V|/64 words of a dense row + Σ_op Σ_t deg_op(t)): a target costs its
// degree, never the universe.
func (scr *ComposeScratch) push(s int32, eps bool, ids []int32, words []uint64, ops []CSROperand) int {
	count := 0
	for i := range ops {
		offs, tgts := ops[i].Offsets, ops[i].Targets
		if eps {
			count += scr.scatter(tgts[offs[s]:offs[s+1]])
		}
		for _, t := range ids {
			count += scr.scatter(tgts[offs[t]:offs[t+1]])
		}
		for wi, w := range words {
			for base := wi * wordBits; w != 0; w &= w - 1 {
				t := base + bits.TrailingZeros64(w)
				count += scr.scatter(tgts[offs[t]:offs[t+1]])
			}
		}
	}
	return count
}

// addWords adds a dense row's own bits — a step's skip term — to the
// accumulator word by word and returns how many were new to it.
func (scr *ComposeScratch) addWords(words []uint64) int {
	count := 0
	for wi, w := range words {
		if w == 0 {
			continue
		}
		old := scr.words[wi]
		count += bits.OnesCount64(w &^ old)
		scr.words[wi] = old | w
		scr.sum[wi>>6] |= 1 << (uint(wi) & 63)
	}
	return count
}

// popcount returns the number of set bits in words.
func popcount(words []uint64) int {
	count := 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	return count
}

// emitRow stores the scatter accumulator into dst's row s, choosing the
// sparse or dense form by dst's threshold. A sparse emit grows the row's
// id list once to count, then walks the summary in ascending order and
// drains the words it reads, in O(|V|/4096 + touched words); a dense one
// copies the accumulator, which the caller then resets.
// It touches only the row itself — the caller accounts for dst's active
// list and pair count, so sharded compositions can run rows concurrently.
func (scr *ComposeScratch) emitRow(dst *HybridRelation, s int32, count int) {
	row := &dst.rows[s]
	row.count = int32(count)
	if count <= dst.sparseMax {
		row.dense = false
		row.ids = slices.Grow(row.ids[:0], count)
		for si, sw := range scr.sum {
			for ; sw != 0; sw &= sw - 1 {
				wi := si*wordBits + bits.TrailingZeros64(sw)
				base := int32(wi * wordBits)
				for w := scr.words[wi]; w != 0; w &= w - 1 {
					row.ids = append(row.ids, base+int32(bits.TrailingZeros64(w)))
				}
				scr.words[wi] = 0
			}
			scr.sum[si] = 0
		}
	} else {
		row.dense = true
		if row.words == nil {
			row.words = make([]uint64, len(scr.words))
		}
		// Full overwrite: untouched scratch words are zero, so this is the
		// complete row.
		copy(row.words, scr.words)
	}
}

// ComposeInto computes the relational composition h ∘ op into dst:
//
//	(s, u) ∈ dst  ⇔  ∃t: (s, t) ∈ h ∧ u ∈ op.successors(t)
//
// dst is reset first and its rows are reused in place, so steady-state
// composition allocates nothing. Every input row, sparse or dense, scatters
// its targets' CSR rows — the step h.Rows().ComposeShard over every row, at
// dst's promotion limit. Returns the distinct-pair count of dst. h and dst
// must be distinct objects over the same universe as op.
func (h *HybridRelation) ComposeInto(dst *HybridRelation, op CSROperand, scr *ComposeScratch) int64 {
	dst.Reset()
	var c Count
	dst.active, c = h.Rows().ComposeShard(dst, []CSROperand{op}, scr, dst.sparseMax, 0, len(h.active), dst.active)
	dst.pairs = c.Pairs
	return dst.pairs
}

// checkOperands panics unless every operand is over an n-vertex universe.
func checkOperands(n int, ops []CSROperand) {
	for i := range ops {
		if ops[i].N != n {
			panic(fmt.Sprintf("bitset: operand universe %d != relation universe %d", ops[i].N, n))
		}
	}
}

// AdoptShard merges one built shard's outcome — the sources and Count a
// step kernel returned — into the relation's aggregate state. Shards must
// be adopted sequentially in ascending shard order so the active-source
// list stays sorted — the concatenation of per-shard ascending source runs
// over ascending disjoint ranges is exactly the list the whole range as
// one shard would have built, which is what keeps parallel steps
// bit-identical.
func (h *HybridRelation) AdoptShard(sources []int32, c Count) {
	h.active = append(h.active, sources...)
	h.pairs += c.Pairs
}
