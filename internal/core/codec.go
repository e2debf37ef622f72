package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/histogram"
	"repro/internal/ordering"
)

// The synopsis codec is the one owner of the saved format: WriteSynopsis
// writes the whole blob — the label vocabulary, then a versioned path
// histogram: magic, version, ordering method, its ranking permutation, k,
// builder, β, and the serial histogram's kind, domain size and bucket
// list — and ReadSynopsis reads it back. That is the *whole* synopsis —
// the original distribution is not stored, which is the point of a
// histogram. Counts and lengths are uvarints, signed values varints, the
// magic and each bucket's SSE bits little-endian. Only the five paper
// methods with serial histograms are serializable; materialized orderings
// would require O(|Lk|) permutations (the memory cost the paper rules
// out), and non-serial synopses are ablation baselines.

const (
	codecMagic   = uint32(0x50534831) // "PSH1"
	codecVersion = byte(1)

	// The synopsis bounds: the reader checks every count against one of
	// them before it sizes an allocation, and checkShape holds Build to
	// the same ones. The domain |L_k| is bounded only by
	// int64 — a numerical or lexicographic ordering is O(k) whatever its
	// size — but a sum-based ordering builds one table entry per multiset
	// of at most k labels, so their count is bounded before it is built:
	// a blob of 100 bytes to 10 KB at the bound loads in 0.26–0.42 s,
	// allocating 150–270 MB of which 70–120 MB stays live (1 446 labels at
	// k = 2 to 8 at k = 16; one core of a 2-vCPU Intel Xeon).
	maxLabels       = 1 << 16 // labels in the vocabulary and the ranking
	maxName         = 1 << 12 // bytes in a label name or any other string
	maxK            = 16      // covered path length
	maxCombinations = 1 << 20 // multisets a sum-based ordering tabulates
)

// checkShape refuses a synopsis past the bounds: a vocabulary of more than
// maxLabels labels or a name longer than maxName, k outside [1, maxK], a
// domain past int64 and a sum-based ordering of more than maxCombinations
// multisets (the "sum-" methods). BuildForGraph and ReadSynopsis both
// call it, so every estimator Build makes with a serial histogram saves a
// blob that loads.
func checkShape(method string, names []string, k int) error {
	if len(names) < 1 || len(names) > maxLabels || k < 1 || k > maxK {
		return fmt.Errorf("core: %d labels at k = %d is outside [1, %d] × [1, %d]", len(names), k, maxLabels, maxK)
	}
	for _, name := range names {
		if len(name) > maxName {
			return fmt.Errorf("core: label name of %d bytes exceeds %d", len(name), maxName)
		}
	}
	domain, multisets := shape(len(names), k)
	if domain < 0 {
		return fmt.Errorf("core: the domain of %d labels at k = %d overflows int64", len(names), k)
	}
	if strings.HasPrefix(method, "sum-") && multisets > maxCombinations {
		return fmt.Errorf("core: a sum-based ordering of %d labels at k = %d tabulates more than %d multisets", len(names), k, maxCombinations)
	}
	return nil
}

// shape returns the domain |L_k| = Σ_{i=1..k} labels^i, or −1 once that
// overflows int64, and the number of multisets of 1 … k labels,
// C(labels+k, k) − 1, counted until it passes maxCombinations.
func shape(labels, k int) (domain, multisets int64) {
	pow, c := int64(1), int64(1) // labels^m and C(labels+m, m)
	for m := 1; m <= k; m++ {
		if pow > math.MaxInt64/int64(labels) || domain > math.MaxInt64-pow*int64(labels) {
			return -1, 0
		}
		pow *= int64(labels)
		domain += pow
		if c-1 <= maxCombinations {
			c = c * int64(labels+m) / int64(m)
		}
	}
	return domain, c - 1
}

// writer encodes fields into a bufio.Writer, which keeps the first write
// error and reports it at Flush — so no field method checks one.
type writer struct {
	*bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

func (w *writer) uvarint(v uint64) { w.Write(binary.AppendUvarint(w.buf[:0], v)) }
func (w *writer) varint(v int64)   { w.Write(binary.AppendVarint(w.buf[:0], v)) }
func (w *writer) str(s string)     { w.uvarint(uint64(len(s))); w.WriteString(s) }

// WriteSynopsis writes the label vocabulary names and the path histogram
// ph as one blob. It fails for materialized orderings and non-serial
// synopses (see the codec comment), and with the first write error.
func WriteSynopsis(out io.Writer, names []string, ph *PathHistogram) error {
	// The three serializable ordering rules expose their ranking.
	ro, ok := ph.ord.(interface{ Ranking() *ordering.Ranking })
	if !ok {
		return fmt.Errorf("core: ordering %s is not serializable (materialized permutation)", ph.ord.Name())
	}
	h, ok := ph.est.(*histogram.Histogram)
	if !ok {
		return fmt.Errorf("core: synopsis %s is not a serial histogram", ph.builder)
	}
	w := &writer{Writer: bufio.NewWriter(out)}
	w.uvarint(uint64(len(names)))
	for _, name := range names {
		w.str(name)
	}
	w.Write(binary.LittleEndian.AppendUint32(w.buf[:0], codecMagic))
	w.WriteByte(codecVersion)
	rank := ro.Ranking()
	w.str(ph.ord.Name())
	w.str(rank.Name())
	w.uvarint(uint64(ph.ord.K()))
	w.uvarint(uint64(rank.NumLabels()))
	for _, l := range rank.Order() {
		w.uvarint(uint64(l))
	}
	w.str(ph.builder)
	w.uvarint(uint64(ph.beta))
	w.str(h.Kind())
	w.varint(h.DomainSize())
	w.uvarint(uint64(h.Buckets()))
	for i := 0; i < h.Buckets(); i++ {
		b := h.Bucket(i)
		w.varint(b.Lo)
		w.varint(b.Hi)
		w.varint(b.Sum)
		w.Write(binary.LittleEndian.AppendUint64(w.buf[:0], math.Float64bits(b.SSE)))
	}
	return w.Flush()
}

// reader decodes fields from a bufio.Reader and keeps the first error:
// after it every field method reads nothing and returns zero, so a
// caller checks err once per stage.
type reader struct {
	*bufio.Reader
	err error
}

// check records a failure unless ok, keeping the first.
func (r *reader) check(ok bool, format string, a ...any) {
	if !ok && r.err == nil {
		r.err = fmt.Errorf(format, a...)
	}
}

func (r *reader) full(b []byte) {
	if r.err == nil {
		_, r.err = io.ReadFull(r.Reader, b)
	}
}

// uvarint and varint return zero, not binary's partial value, on error.
func (r *reader) uvarint() uint64 { return keep(r, binary.ReadUvarint) }
func (r *reader) varint() int64   { return keep(r, binary.ReadVarint) }

func keep[T uint64 | int64](r *reader, read func(io.ByteReader) (T, error)) (v T) {
	if r.err == nil {
		if v, r.err = read(r.Reader); r.err != nil {
			v = 0
		}
	}
	return v
}

// count reads a uvarint that must lie in [lo, hi]; otherwise it fails
// and returns zero.
func (r *reader) count(what string, lo, hi uint64) int {
	v := r.uvarint()
	if r.check(lo <= v && v <= hi, "core: implausible %s %d", what, v); r.err != nil {
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	b := make([]byte, r.count("string length", 0, maxName))
	r.full(b)
	return string(b)
}

// ReadSynopsis reads a blob written by WriteSynopsis, returning the label
// vocabulary and the path histogram. It refuses a count outside the
// codec's bounds, a ranking that is not a permutation of the vocabulary,
// an ordering it cannot rebuild and buckets that do not partition the
// domain.
func ReadSynopsis(in io.Reader) ([]string, *PathHistogram, error) {
	r := &reader{Reader: bufio.NewReader(in)}
	names := make([]string, r.count("label count", 1, maxLabels))
	for i := range names {
		names[i] = r.str()
	}
	var head [5]byte
	r.full(head[:])
	magic := binary.LittleEndian.Uint32(head[:])
	r.check(magic == codecMagic, "core: bad magic 0x%08x (not a path-histogram file)", magic)
	r.check(head[4] == codecVersion, "core: unsupported codec version %d", head[4])
	method, rankName := r.str(), r.str()
	k := r.count("k", 1, maxK)
	if r.err == nil {
		r.err = checkShape(method, names, k)
	}
	order := make([]int, r.count("ranking length", uint64(len(names)), uint64(len(names))))
	for i := range order {
		order[i] = int(r.uvarint())
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	rank, err := ordering.RankingFromOrder(rankName, order)
	if err != nil {
		return nil, nil, err
	}
	ord, err := ordering.ForRanking(method, rank, k)
	if err != nil {
		return nil, nil, err
	}
	ph := &PathHistogram{ord: ord, builder: r.str(), beta: int(r.uvarint())}
	kind, domain := r.str(), r.varint()
	r.check(domain == ord.Size(), "core: domain size %d disagrees with ordering (%d)", domain, ord.Size())
	// The bucket list grows as it is read: the domain bounds its count, but
	// not by a size to allocate on a blob's word.
	var buckets []histogram.Bucket
	for n := r.count("bucket count", 1, uint64(domain)); len(buckets) < n && r.err == nil; {
		b := histogram.Bucket{Lo: r.varint(), Hi: r.varint(), Sum: r.varint()}
		var sse [8]byte
		r.full(sse[:])
		b.SSE = math.Float64frombits(binary.LittleEndian.Uint64(sse[:]))
		buckets = append(buckets, b)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if ph.est, err = histogram.FromBuckets(kind, domain, buckets); err != nil {
		return nil, nil, err
	}
	return names, ph, nil
}
