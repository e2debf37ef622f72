package relcache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/paths"
)

// elem is one query element as AppendElem takes it.
type elem struct {
	labels   []int
	min, max int
}

func (e elem) equal(o elem) bool {
	return slices.Equal(e.labels, o.labels) && e.min == o.min && e.max == o.max
}

func keyOf(seq []elem) []byte {
	var key []byte
	for _, e := range seq {
		key = AppendElem(key, e.labels, e.min, e.max)
	}
	return key
}

// decodeKey reads a key back into its element sequence by the format
// AppendElem documents, or reports that the bytes are no whole key.
func decodeKey(key []byte) (seq []elem, ok bool) {
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(key)
		if n <= 0 {
			return 0, false
		}
		key = key[n:]
		return v, true
	}
	for len(key) > 0 {
		head, ok := next()
		if !ok {
			return nil, false
		}
		if head&1 == 0 {
			seq = append(seq, elem{[]int{int(head >> 1)}, 1, 1})
			continue
		}
		e := elem{labels: make([]int, head>>1)}
		for i := range e.labels {
			l, ok := next()
			if !ok {
				return nil, false
			}
			e.labels[i] = int(l)
		}
		lo, ok1 := next()
		hi, ok2 := next()
		if !ok1 || !ok2 {
			return nil, false
		}
		e.min, e.max = int(lo), int(hi)
		seq = append(seq, e)
	}
	return seq, true
}

// maxRepetition is exec.MaxRepetition, which this package cannot import.
const maxRepetition = 64

// randomElem draws an element as the compiler makes them: a sorted,
// deduplicated set of 1–300 labels below 2^28 under bounds up to
// maxRepetition, plain labels over-represented (they are most of every
// workload, and the case the path key has to agree with).
func randomElem(rng *rand.Rand) elem {
	if rng.Intn(2) == 0 {
		return elem{[]int{rng.Intn(1 << (1 + rng.Intn(28)))}, 1, 1}
	}
	n := 1 + rng.Intn(4)
	if rng.Intn(8) == 0 {
		n = 1 + rng.Intn(300)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(1 << (1 + rng.Intn(28)))
	}
	slices.Sort(labels)
	labels = slices.Compact(labels)
	hi := 1 + rng.Intn(maxRepetition)
	return elem{labels, rng.Intn(hi + 1), hi}
}

func randomSeq(rng *rand.Rand) []elem {
	seq := make([]elem, 1+rng.Intn(5))
	for i := range seq {
		seq[i] = randomElem(rng)
	}
	return seq
}

// mutate returns a sequence one edit away from seq: a label, a bound or
// the set's size changed, an element dropped, added or split in two.
func mutate(rng *rand.Rand, seq []elem) []elem {
	out := make([]elem, len(seq))
	for i, e := range seq {
		out[i] = elem{slices.Clone(e.labels), e.min, e.max}
	}
	i := rng.Intn(len(out))
	switch e := &out[i]; rng.Intn(6) {
	case 0:
		e.labels[rng.Intn(len(e.labels))] ^= 1 << rng.Intn(28)
		slices.Sort(e.labels)
		e.labels = slices.Compact(e.labels)
	case 1:
		e.max++
	case 2:
		e.min = (e.min + 1) % (e.max + 1)
	case 3:
		out = slices.Delete(out, i, i+1)
	case 4:
		out = slices.Insert(out, i, randomElem(rng))
	default:
		// (a|b) against a/b: the same labels in the same order.
		var split []elem
		for _, l := range e.labels {
			split = append(split, elem{[]int{l}, 1, 1})
		}
		out = slices.Replace(out, i, i+1, split...)
	}
	return out
}

func seqEqual(a, b []elem) bool { return slices.EqualFunc(a, b, elem.equal) }

// FuzzKeyInjective pins what a cache key is, on random element sequences
// and their near misses: a key decodes back to its sequence (so keys are
// equal exactly when sequences are); concatenating keys is concatenating
// sequences; one key is a byte prefix of another only where its sequence
// is an element prefix of the other's — the property that lets a fold
// prefix share a concrete segment's entry and nothing else's; and a
// sequence of plain labels has the label path's key, byte for byte.
func FuzzKeyInjective(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 64; round++ {
			checkKeys(t, rng)
		}
	})
}

// checkKeys draws one pair of sequences and checks FuzzKeyInjective's
// properties on it.
func checkKeys(t *testing.T, rng *rand.Rand) {
	a := randomSeq(rng)
	b := randomSeq(rng)
	if rng.Intn(2) == 0 {
		b = mutate(rng, a)
	}
	ka, kb := keyOf(a), keyOf(b)
	for _, c := range []struct {
		seq []elem
		key []byte
	}{{a, ka}, {b, kb}} {
		if got, ok := decodeKey(c.key); !ok || !seqEqual(got, c.seq) {
			t.Fatalf("key of %v decodes to %v (whole=%v)", c.seq, got, ok)
		}
	}
	if bytes.Equal(ka, kb) != seqEqual(a, b) {
		t.Fatalf("%v and %v: keys equal=%v, sequences equal=%v", a, b, bytes.Equal(ka, kb), seqEqual(a, b))
	}
	if !bytes.Equal(keyOf(append(slices.Clone(a), b...)), append(slices.Clone(ka), kb...)) {
		t.Fatalf("key of %v ++ %v is not the keys' concatenation", a, b)
	}
	for _, c := range [][2][]elem{{a, b}, {b, a}} {
		short, long := c[0], c[1]
		if bytes.HasPrefix(keyOf(long), keyOf(short)) && !(len(short) <= len(long) && seqEqual(short, long[:len(short)])) {
			t.Fatalf("key of %v is a prefix of the key of %v, which does not start with it", short, long)
		}
	}
	// Self-delimiting: the only cuts of a key that are keys are its
	// element boundaries.
	for cut := 1; cut < len(ka); cut++ {
		if seq, ok := decodeKey(ka[:cut]); ok && !(len(seq) < len(a) && seqEqual(seq, a[:len(seq)])) {
			t.Fatalf("the first %d bytes of the key of %v are the key of %v", cut, a, seq)
		}
	}
	var p paths.Path
	for _, e := range a {
		if len(e.labels) != 1 || e.min != 1 || e.max != 1 {
			p = nil
			break
		}
		p = append(p, e.labels[0])
	}
	if p != nil && !bytes.Equal(ka, AppendPath(nil, p)) {
		t.Fatalf("plain sequence %v keys as %x, its path as %x", p, ka, AppendPath(nil, p))
	}
}

// TestKeyFormsShareOneTable pins that the path forms are the byte-keyed
// forms: what Put stores under a path, GetKey finds under the same labels
// as plain elements, and the other way round — one map, one encoder — and
// that a prefix of plain labels inside a longer element sequence is that
// path's key.
func TestKeyFormsShareOneTable(t *testing.T) {
	c := New(Options{})
	p := paths.Path{3, 200, 1 << 20}
	var key []byte
	for _, l := range p {
		key = AppendElem(key, []int{l}, 1, 1)
	}
	c.Put(p, true, rel(8, [2]int{0, 1}))
	if r, reversed, ok := c.GetKey(key); !ok || !reversed || r.Pairs() != 1 || !c.ContainsKey(key) {
		t.Fatal("an entry put under a path is not under its elements' key")
	}
	q := paths.Path{5, 6}
	c.PutKey(AppendPath(nil, q), false, rel(8, [2]int{0, 1}, [2]int{1, 2}))
	if r, reversed, ok := c.Get(q); !ok || reversed || r.Pairs() != 2 || !c.Contains(q) {
		t.Fatal("an entry put under a key of plain labels is not under their path")
	}
	if st := c.Stats(); st.Entries != 2 || st.Puts != 2 {
		t.Fatalf("two sequences made %+v", st)
	}
	long := AppendElem(AppendPath(nil, p), []int{4, 9}, 0, 2)
	if !bytes.Equal(long[:len(key)], key) || c.ContainsKey(long) {
		t.Fatal("a/b/c is not the first bytes of a/b/c/(d|e){0,2}, or the longer key found the shorter one's entry")
	}
}

// TestLongKeySpillsAndRoundTrips: a wildcard over 300 labels has a key far
// past the room lookups keep on their stack; it is heap-built and every
// form still works, and a one-label neighbour is a different entry.
func TestLongKeySpillsAndRoundTrips(t *testing.T) {
	all := make([]int, 300)
	for i := range all {
		all[i] = i
	}
	key := AppendElem(AppendPath(nil, paths.Path{7}), all, 1, 1)
	if len(key) <= keyInline {
		t.Fatalf("a 300-label wildcard keys in %d bytes, want more than the %d kept inline", len(key), keyInline)
	}
	if seq, ok := decodeKey(key); !ok || len(seq) != 2 || !slices.Equal(seq[1].labels, all) {
		t.Fatal("the long key does not decode to label, wildcard")
	}
	c := New(Options{})
	c.PutKey(key, false, rel(8, [2]int{0, 1}, [2]int{2, 3}))
	if r, _, ok := c.GetKey(key); !ok || r.Pairs() != 2 || !c.ContainsKey(key) {
		t.Fatal("entry under a spilled key not found")
	}
	near := AppendElem(AppendPath(nil, paths.Path{7}), all[:299], 1, 1)
	if _, _, ok := c.GetKey(near); ok || c.ContainsKey(near) {
		t.Fatal("a 299-label set found the 300-label set's entry")
	}
	checkInvariants(t, c)
}
