package bitset

import (
	"fmt"
	"math/bits"
)

// This file holds the census's leaf kernel: the step through every label at
// once, counted. The children of a prefix are all |L| of its one-label
// extensions, and a step per label scatters the same targets |L| times;
// here each target's whole adjacency, every label's edges fused into one
// row, scatters once into an accumulator with one Npad-bit stride per
// label (Then et al.'s multi-source traversal, with labels for sources),
// and one walk of the summary counts every stride and clears it.

// fusedBudget is the most bits a fused accumulator spans: 2^19 bits, 64 KiB,
// sized to a core's L2. Labels are fused in chunks of as many strides as fit
// (at least one), which also keeps an encoded id inside int32 whatever |L|
// is; every Table 3 graph fits all its labels in one chunk.
const fusedBudget = 1 << 19

// FusedOperand is every label's CSR fused vertex-major, in chunks of group
// labels: row (t, c), tgts[offs[t·chunks+c]:offs[t·chunks+c+1]], lists
// (l − l0)·stride + u for every edge t -l-> u whose label l is in chunk c,
// l0 being that chunk's first label and stride |V| rounded up to a word —
// one label's bits in the accumulator. A row lists its labels in ascending
// order, each label's targets ascending. It is built in O(|V|·|L| + |E|)
// and read only.
type FusedOperand struct {
	n, labels, stride, group, chunks int
	offs, tgts                       []int32
}

// FuseOperands fuses the operands of labels 0…len(ops)−1, all over an
// n-vertex universe, for CountLabels.
func FuseOperands(n int, ops []CSROperand) *FusedOperand { return fuseOperands(n, ops, fusedBudget) }

// fuseOperands is FuseOperands with budget bits of accumulator.
func fuseOperands(n int, ops []CSROperand, budget int) *FusedOperand {
	checkOperands(n, ops)
	stride := max(1, wordsFor(n)) * wordBits
	group := max(1, min(len(ops), budget/stride))
	chunks, edges := (len(ops)+group-1)/group, 0
	for _, op := range ops {
		edges += len(op.Targets)
	}
	f := &FusedOperand{n: n, labels: len(ops), stride: stride, group: group, chunks: chunks,
		offs: make([]int32, 1, n*chunks+1), tgts: make([]int32, 0, edges)}
	for t := 0; t < n; t++ {
		for l, op := range ops {
			for _, u := range op.Targets[op.Offsets[t]:op.Offsets[t+1]] {
				f.tgts = append(f.tgts, int32(l%group*stride)+u)
			}
			if l%group == group-1 || l == len(ops)-1 {
				f.offs = append(f.offs, int32(len(f.tgts)))
			}
		}
	}
	return f
}

// NewScratch returns an accumulator a CountLabels pass over f can use: one
// chunk's strides.
func (f *FusedOperand) NewScratch() *ComposeScratch { return NewComposeScratch(f.group * f.stride) }

// CountLabels writes |r ∘ ops[l]| into counts[l] for every label l of f,
// each the Pairs a count-only ComposeShard of r through ops[l] alone would
// report. Per row and chunk, every target of the row — a sparse or CSR
// row's ids, a dense row's set bits — scatters its fused row into scr, and
// tally pops each touched word into its stride's label and zeroes it, so
// the accumulator is clean again after each row. r may carry no identity
// terms (Extend); scr must come from f's NewScratch.
func (r Rows) CountLabels(f *FusedOperand, scr *ComposeScratch, counts []int64) {
	if r.eps || r.skip || r.n != f.n || len(counts) != f.labels || len(scr.words)*wordBits < f.group*f.stride {
		panic(fmt.Sprintf("bitset: CountLabels over universe %d into %d counts, fused %d over %d labels", r.n, len(counts), f.n, f.labels))
	}
	clear(counts)
	for i := 0; i < r.Len(); i++ {
		ids, words := []int32(nil), []uint64(nil)
		if r.h != nil {
			if row := &r.h.rows[r.h.active[i]]; row.dense {
				words = row.words
			} else {
				ids = row.ids
			}
		} else {
			s := r.active[i]
			ids = r.tgts[r.offs[s]:r.offs[s+1]]
		}
		for c := 0; c < f.chunks; c++ {
			for _, t := range ids {
				j := int(t)*f.chunks + c
				scr.scatter(f.tgts[f.offs[j]:f.offs[j+1]])
			}
			for wi, w := range words {
				for base := wi * wordBits; w != 0; w &= w - 1 {
					j := (base+bits.TrailingZeros64(w))*f.chunks + c
					scr.scatter(f.tgts[f.offs[j]:f.offs[j+1]])
				}
			}
			scr.tally(counts[c*f.group:min(len(counts), (c+1)*f.group)], f.stride/wordBits)
		}
	}
}

// tally is reset that counts: it adds each touched word's population to
// counts[wi / stride] — stride words per label — then zeroes the word and
// the summary. The summary walks in ascending order, so the label only
// ever advances, and a label's words are summed before its slot is.
func (scr *ComposeScratch) tally(counts []int64, stride int) {
	l, end, acc := 0, stride, 0
	for si, sw := range scr.sum {
		for ; sw != 0; sw &= sw - 1 {
			wi := si*wordBits + bits.TrailingZeros64(sw)
			for ; wi >= end; end += stride {
				counts[l] += int64(acc)
				l, acc = l+1, 0
			}
			acc += bits.OnesCount64(scr.words[wi])
			scr.words[wi] = 0
		}
		scr.sum[si] = 0
	}
	counts[l] += int64(acc)
}
