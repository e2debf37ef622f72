package exec

import (
	"testing"

	"repro/internal/paths"
)

// fuzzDag decodes up to four elements from data, three bytes each, over
// numLabels labels. The first byte picks the label set: a plain label
// (top bits 00 or 01), an alternation of two labels (10) or the wildcard
// (11). The second is MinRep ∈ [0,2], the third MaxRep − MinRep ∈ [0,2],
// with MaxRep at least 1 — so windows overlap (`a{1,2}/a{1,2}`,
// `a?/a{0,2}/a`) and some paths are reached more than once.
func fuzzDag(numLabels int, data []byte) *RPQDag {
	d := &RPQDag{}
	for len(data) >= 3 && len(d.Elems) < 4 {
		b := int(data[0])
		var labels []int
		switch b >> 6 {
		case 0, 1:
			labels = []int{b % numLabels}
		case 2:
			labels = dedupInts([]int{b % numLabels, (b / 8) % numLabels})
		default:
			for l := 0; l < numLabels; l++ {
				labels = append(labels, l)
			}
		}
		lo := int(data[1]) % 3
		hi := max(1, lo+int(data[2])%3)
		d.Elems = append(d.Elems, RPQElem{Labels: labels, MinRep: lo, MaxRep: hi})
		data = data[3:]
	}
	return d
}

// dedupInts sorts a tiny slice and drops repeats.
func dedupInts(s []int) []int {
	sortInts(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// assertExpansionsMatch compares Expansions with refExpansions at one
// limit: the same paths in the same order and the same ok, and no path
// sharing its storage's tail with the next.
func assertExpansionsMatch(t *testing.T, d *RPQDag, limit int) {
	t.Helper()
	want, wantOK := refExpansions(d, limit)
	got, ok := d.Expansions(limit)
	if ok != wantOK || len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s limit %d: %d paths ok=%v, reference %d ok=%v",
			d.Describe(), limit, len(got), ok, len(want), wantOK)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s limit %d: path %d = %v, reference %v", d.Describe(), limit, i, got[i], want[i])
		}
	}
	// Appending to one expansion must leave every other as it was.
	for i := range got {
		_ = append(got[i], -1)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s limit %d: an append changed path %d to %v", d.Describe(), limit, i, got[i])
		}
	}
}

// FuzzExpansionsEquivalence pins Expansions to the map-deduplicated
// enumeration it replaced on random DAGs, at the limit equal to the
// distinct count, one below it and far above it.
func FuzzExpansionsEquivalence(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 1, 0, 1, 1})                         // a{1,2}/a{1,2}
	f.Add(uint8(1), []byte{0, 0, 1, 0, 0, 2, 0, 1, 0})                // a?/a{0,2}/a
	f.Add(uint8(2), []byte{0xff, 1, 1, 0xff, 1, 1})                   // (a|b){1,2}/(a|b){1,2}
	f.Add(uint8(6), []byte{0xc0, 1, 1, 0xc0, 1, 2})                   // *{1,2}/*{1,3}
	f.Add(uint8(8), []byte{0x83, 1, 0, 0xc0, 0, 1, 0x4a, 0, 1})       // (a|d)/*?/c?
	f.Add(uint8(4), []byte{0xc0, 2, 0, 0, 0, 2, 0x91, 1, 0, 5, 1, 1}) // *{2}/a{0,2}/(b|c)/b{1,2}
	f.Fuzz(func(t *testing.T, labels uint8, data []byte) {
		d := fuzzDag(1+int(labels)%8, data)
		if len(d.Elems) == 0 {
			return
		}
		const most = 1 << 14
		all, ok := refExpansions(d, most)
		if !ok {
			assertExpansionsMatch(t, d, most)
			return
		}
		n := len(all)
		for _, limit := range []int{n, n - 1, n + 1000} {
			assertExpansionsMatch(t, d, limit)
		}
	})
}

// TestExpansionsRefuseBelowLowerBound pins the refusal before the walk:
// when the longest-per-length lower bound on the distinct count exceeds
// the limit, Expansions returns nil, false having allocated nothing; at
// the bound it walks, and a bound below the distinct count still ends in
// the walk's own refusal.
func TestExpansionsRefuseBelowLowerBound(t *testing.T) {
	wild := RPQElem{Labels: []int{0, 1, 2, 3}, MinRep: 1, MaxRep: 2}
	// *{1,2}/*?/(1|2) over 4 labels: every path of length 2–4 ending in
	// 1 or 2, 2·(4+16+64) = 168 of them, and the bound is exact.
	exact := &RPQDag{Elems: []RPQElem{wild,
		{Labels: []int{0, 1, 2, 3}, MinRep: 0, MaxRep: 1}, {Labels: []int{1, 2}, MinRep: 1, MaxRep: 1}}}
	if got, ok := exact.Expansions(168); !ok || len(got) != 168 {
		t.Fatalf("%s at the bound: %d paths ok=%v, want 168", exact.Describe(), len(got), ok)
	}
	if n := testing.AllocsPerRun(10, func() {
		if got, ok := exact.Expansions(167); got != nil || ok {
			t.Fatalf("%s below the bound: %d paths ok=%v", exact.Describe(), len(got), ok)
		}
	}); n != 0 {
		t.Fatalf("%s below the bound: %v allocations, want a refusal before the walk", exact.Describe(), n)
	}
	// a?/b?/c: c, ac, bc, abc — a bound of 3 (one path per length), so at
	// limit 3 the walk runs and refuses at the fourth.
	loose := &RPQDag{Elems: []RPQElem{{Labels: []int{0}, MinRep: 0, MaxRep: 1},
		{Labels: []int{1}, MinRep: 0, MaxRep: 1}, {Labels: []int{2}, MinRep: 1, MaxRep: 1}}}
	for _, limit := range []int{3, 4} {
		assertExpansionsMatch(t, loose, limit)
	}
	for _, limit := range []int{167, 168, 1000} {
		assertExpansionsMatch(t, exact, limit)
	}
}

// TestExpansionsAllocationsBounded pins what an estimate's hot path relies
// on: Expansions allocates the same small number of times for 1 296 paths
// as for 6 — two where no path can repeat (the slab and the headers), three
// where one can (and the dedup table).
func TestExpansionsAllocationsBounded(t *testing.T) {
	wild := []int{0, 1, 2, 3, 4, 5}
	elem := func(labels []int, lo, hi int) RPQElem { return RPQElem{Labels: labels, MinRep: lo, MaxRep: hi} }
	for _, c := range []struct {
		name       string
		d          *RPQDag
		paths, max int
	}{
		{"*{3}/*", &RPQDag{Elems: []RPQElem{elem(wild, 3, 3), elem(wild, 1, 1)}}, 1296, 2},
		{"(1|2|3)/(4|5)", &RPQDag{Elems: []RPQElem{elem(wild[:3], 1, 1), elem(wild[3:5], 1, 1)}}, 6, 2},
		{"1/*{1,2}/*{1,3}", &RPQDag{Elems: []RPQElem{elem(wild[:1], 1, 1), elem(wild, 1, 2), elem(wild, 1, 3)}}, 9324, 3},
		{"1{1,2}/1{1,2}", &RPQDag{Elems: []RPQElem{elem(wild[:1], 1, 2), elem(wild[:1], 1, 2)}}, 3, 3},
	} {
		var got []paths.Path
		n := testing.AllocsPerRun(20, func() {
			var ok bool
			if got, ok = c.d.Expansions(100000); !ok {
				t.Fatalf("%s: refused", c.name)
			}
		})
		if len(got) != c.paths || n != float64(c.max) {
			t.Fatalf("%s: %d paths in %v allocations, want %d in %d", c.name, len(got), n, c.paths, c.max)
		}
	}
}
