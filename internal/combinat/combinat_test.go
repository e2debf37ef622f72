package combinat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBinomialTable(t *testing.T) {
	cases := []struct{ n, k, want int64 }{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {6, 3, 20},
		{10, 5, 252}, {52, 5, 2598960}, {4, 5, 0}, {3, -1, 0}, {-1, 0, 0},
		{60, 30, 118264581564861424},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(n8, k8 uint8) bool {
		n, k := int64(n8%50), int64(k8%50)
		return Binomial(n, k) == Binomial(n, n-k) || k > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := int64(1); n < 40; n++ {
		for k := int64(1); k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestDistSmall(t *testing.T) {
	// m=2, b=3, sum=4 → (1,3),(3,1),(2,2) = 3 (worked in the paper's
	// Table 1/2 example scale).
	if got := Dist(4, 2, 3); got != 3 {
		t.Fatalf("Dist(4,2,3) = %d, want 3", got)
	}
	cases := []struct{ sum, m, b, want int64 }{
		{0, 0, 3, 1}, // empty sequence
		{1, 0, 3, 0}, // nothing sums to 1 with 0 parts
		{2, 2, 3, 1}, // (1,1)
		{3, 2, 3, 2}, // (1,2),(2,1)
		{6, 2, 3, 1}, // (3,3)
		{7, 2, 3, 0}, // above max
		{1, 2, 3, 0}, // below min
		{3, 3, 1, 1}, // (1,1,1)
		{4, 3, 1, 0}, // parts capped at 1
		{10, 3, 6, 27},
	}
	for _, c := range cases {
		if got := Dist(c.sum, c.m, c.b); got != c.want {
			t.Errorf("Dist(%d,%d,%d) = %d, want %d", c.sum, c.m, c.b, got, c.want)
		}
	}
}

func TestDistMatchesNaive(t *testing.T) {
	for b := int64(1); b <= 8; b++ {
		for m := int64(0); m <= 5; m++ {
			for sum := int64(0); sum <= m*b+2; sum++ {
				got, want := Dist(sum, m, b), DistNaive(sum, m, b)
				if got != want {
					t.Fatalf("Dist(%d,%d,%d) = %d, naive = %d", sum, m, b, got, want)
				}
			}
		}
	}
}

func TestDistTotalsToPow(t *testing.T) {
	// Σ_sum Dist(sum, m, b) must equal b^m: every sequence has some sum.
	for b := int64(1); b <= 8; b++ {
		for m := int64(1); m <= 6; m++ {
			var total int64
			for sum := m; sum <= m*b; sum++ {
				total += Dist(sum, m, b)
			}
			if want := Pow(b, m); total != want {
				t.Fatalf("Σ Dist(·,%d,%d) = %d, want %d", m, b, total, want)
			}
		}
	}
}

func collectPartitions(v, m, b int64) [][]int64 {
	var out [][]int64
	Partitions(v, m, b, func(p []int64) bool {
		cp := make([]int64, len(p))
		copy(cp, p)
		out = append(out, cp)
		return true
	})
	return out
}

func TestPartitionsPaperExample(t *testing.T) {
	// Stage-three order for v=4, m=2, b=3 must be [2,2] then [1,3] — this
	// pins Table 2's sum-based row (3/3 before 1/2, 2/1).
	got := collectPartitions(4, 2, 3)
	want := [][]int64{{2, 2}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Partitions(4,2,3) = %v, want %v", got, want)
	}
}

func TestPartitionsEnumeration(t *testing.T) {
	cases := []struct {
		v, m, b int64
		want    [][]int64
	}{
		{2, 2, 3, [][]int64{{1, 1}}},
		{3, 2, 3, [][]int64{{1, 2}}},
		{5, 2, 3, [][]int64{{2, 3}}},
		{6, 2, 3, [][]int64{{3, 3}}},
		{7, 2, 3, nil},
		{1, 2, 3, nil},
		{3, 3, 3, [][]int64{{1, 1, 1}}},
		// v=6, m=3, b=3: i(# of 3s)=0 → partitions of 6 into 3 parts ≤2:
		// {2,2,2}; i=1 → partitions of 3 into 2 parts ≤2: {1,2}+3; i=2 →
		// partitions of 0 into 1 part: none.
		{6, 3, 3, [][]int64{{2, 2, 2}, {1, 2, 3}}},
		// v=9, m=3, b=3: only all-3s.
		{9, 3, 3, [][]int64{{3, 3, 3}}},
	}
	for _, c := range cases {
		got := collectPartitions(c.v, c.m, c.b)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Partitions(%d,%d,%d) = %v, want %v", c.v, c.m, c.b, got, c.want)
		}
	}
}

func TestPartitionsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		b := int64(1 + rng.Intn(8))
		m := int64(1 + rng.Intn(5))
		v := m + int64(rng.Intn(int(m*b-m+1)))
		seen := map[string]bool{}
		var totalPerms int64
		Partitions(v, m, b, func(p []int64) bool {
			if int64(len(p)) != m {
				t.Fatalf("partition %v has %d parts, want %d", p, len(p), m)
			}
			var sum int64
			for i, part := range p {
				if part < 1 || part > b {
					t.Fatalf("partition %v has out-of-range part", p)
				}
				if i > 0 && p[i] < p[i-1] {
					t.Fatalf("partition %v not ascending", p)
				}
				sum += part
			}
			if sum != v {
				t.Fatalf("partition %v sums to %d, want %d", p, sum, v)
			}
			key := ""
			for _, part := range p {
				key += string(rune('a' + part))
			}
			if seen[key] {
				t.Fatalf("duplicate partition %v", p)
			}
			seen[key] = true
			totalPerms += NumPermutations(p)
			return true
		})
		// Partitions × their permutation counts must tile the whole
		// stage-two group: Σ nop == dist.
		if want := Dist(v, m, b); totalPerms != want {
			t.Fatalf("Σ nop over Partitions(%d,%d,%d) = %d, want Dist = %d",
				v, m, b, totalPerms, want)
		}
	}
}

func TestPartitionsEarlyStop(t *testing.T) {
	n := 0
	Partitions(6, 3, 3, func([]int64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop emitted %d partitions, want 1", n)
	}
}

func TestNumPermutations(t *testing.T) {
	cases := []struct {
		parts []int64
		want  int64
	}{
		{[]int64{1}, 1},
		{[]int64{1, 2}, 2},
		{[]int64{2, 2}, 1},
		{[]int64{1, 2, 3}, 6},
		{[]int64{1, 1, 2}, 3},
		{[]int64{1, 1, 2, 2}, 6},
		{[]int64{1, 1, 1, 1}, 1},
		{[]int64{1, 2, 3, 4, 5, 6}, 720},
	}
	for _, c := range cases {
		if got := NumPermutations(c.parts); got != c.want {
			t.Errorf("NumPermutations(%v) = %d, want %d", c.parts, got, c.want)
		}
	}
}

func TestUnrankPermutationFull(t *testing.T) {
	// All permutations of {1,1,2}: (1,1,2), (1,2,1), (2,1,1).
	want := [][]int64{{1, 1, 2}, {1, 2, 1}, {2, 1, 1}}
	for i, w := range want {
		got := UnrankPermutation(int64(i), []int64{1, 1, 2})
		if !reflect.DeepEqual(got, w) {
			t.Errorf("UnrankPermutation(%d) = %v, want %v", i, got, w)
		}
	}
	if UnrankPermutation(3, []int64{1, 1, 2}) != nil {
		t.Error("out-of-range index should return nil")
	}
	if UnrankPermutation(-1, []int64{1, 1, 2}) != nil {
		t.Error("negative index should return nil")
	}
}

func TestUnrankPermutationSingleton(t *testing.T) {
	got := UnrankPermutation(0, []int64{7})
	if !reflect.DeepEqual(got, []int64{7}) {
		t.Fatalf("UnrankPermutation(0,[7]) = %v", got)
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	multisets := [][]int64{
		{1, 2}, {1, 1, 2}, {1, 2, 3}, {1, 1, 2, 2}, {1, 2, 3, 4},
		{1, 1, 1, 2, 3}, {2, 2, 2}, {1, 2, 2, 3, 3, 3},
	}
	for _, ms := range multisets {
		n := NumPermutations(ms)
		var prev []int64
		for i := int64(0); i < n; i++ {
			p := UnrankPermutation(i, ms)
			if p == nil {
				t.Fatalf("UnrankPermutation(%d, %v) = nil", i, ms)
			}
			if got := RankPermutation(p); got != i {
				t.Fatalf("RankPermutation(UnrankPermutation(%d,%v)) = %d", i, ms, got)
			}
			if prev != nil && !lexLess(prev, p) {
				t.Fatalf("permutations of %v not ascending: %v then %v", ms, prev, p)
			}
			prev = p
		}
	}
}

func lexLess(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestRankPermutationEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RankPermutation(nil) should panic")
		}
	}()
	RankPermutation(nil)
}

func TestPow(t *testing.T) {
	cases := []struct{ b, e, want int64 }{
		{2, 0, 1}, {2, 10, 1024}, {6, 6, 46656}, {1, 100, 1}, {0, 3, 0}, {10, 18, 1000000000000000000},
	}
	for _, c := range cases {
		if got := Pow(c.b, c.e); got != c.want {
			t.Errorf("Pow(%d,%d) = %d, want %d", c.b, c.e, got, c.want)
		}
	}
}

func TestPowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow with negative exponent should panic")
		}
	}()
	Pow(2, -1)
}

func TestPowOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow overflow should panic")
		}
	}()
	Pow(10, 19)
}

func TestGeometricSum(t *testing.T) {
	// |L6| over 6 labels: 6+36+216+1296+7776+46656 = 55986 (the paper's
	// stated 55996 is a typo).
	if got := GeometricSum(6, 6); got != 55986 {
		t.Fatalf("GeometricSum(6,6) = %d, want 55986", got)
	}
	if got := GeometricSum(3, 2); got != 12 {
		t.Fatalf("GeometricSum(3,2) = %d, want 12", got)
	}
	if got := GeometricSum(5, 0); got != 0 {
		t.Fatalf("GeometricSum(5,0) = %d, want 0", got)
	}
}

// refNumPermutations is NumPermutations as it was: the value classes
// counted in a map and visited in its iteration order, the running product
// overflow-checked in 64 bits — so whether a large input panicked depended
// on the order the map happened to yield.
func refNumPermutations(parts []int64) int64 {
	counts := map[int64]int64{}
	for _, p := range parts {
		counts[p]++
	}
	var r int64 = 1
	pos := int64(0)
	for _, c := range counts {
		for i := int64(1); i <= c; i++ {
			pos++
			hi, p := mulCheck(r, pos)
			if hi {
				panic("combinat: NumPermutations overflows int64")
			}
			r = p / i
		}
	}
	return r
}

// refRankPermutation is RankPermutation as it was: a heap copy, and one
// block size (one division) per value class walked past.
func refRankPermutation(perm []int64) int64 {
	remaining := make([]int64, len(perm))
	copy(remaining, perm)
	sortInt64(remaining)
	nop := refNumPermutations(remaining)
	n := int64(len(remaining))
	var rank int64
	for _, v := range perm {
		i := 0
		for {
			x := remaining[i]
			d := int64(0)
			j := i
			for j < len(remaining) && remaining[j] == x {
				d++
				j++
			}
			block := nop * d / n
			if x != v {
				rank += block
				i = j
				continue
			}
			nop = block
			n--
			copy(remaining[i:], remaining[i+1:])
			remaining = remaining[:len(remaining)-1]
			break
		}
	}
	return rank
}

// TestPermutationRankingMatchesReference pins the stack-buffer,
// sorted-run NumPermutations and RankPermutation to the code they
// replaced, on random multisets on both sides of the stack-buffer bound.
func TestPermutationRankingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(8)
		if trial%50 == 0 {
			n = stackParts - 1 + rng.Intn(4) // 15..18: 18!/… still fits int64
		}
		perm := make([]int64, n)
		for i := range perm {
			perm[i] = 1 + rng.Int63n(int64(1+rng.Intn(6)))
		}
		if got, want := NumPermutations(perm), refNumPermutations(perm); got != want {
			t.Fatalf("NumPermutations(%v) = %d, reference %d", perm, got, want)
		}
		if got, want := RankPermutation(perm), refRankPermutation(perm); got != want {
			t.Fatalf("RankPermutation(%v) = %d, reference %d", perm, got, want)
		}
	}
}

// TestNumPermutationsIndependentOfClassOrder is the regression test for
// the map-order overflow: thirty 1s, thirty 2s and one 3 have
// 61!/(30!·30!) = 7214139475456546864 arrangements, which fits int64, but
// the old running product peaked at result × count(last class visited) —
// and the last class was whichever the map iteration ended on, so about a
// quarter of calls panicked. The value must come back every time, in
// whatever order the parts arrive.
func TestNumPermutationsIndependentOfClassOrder(t *testing.T) {
	const want = 7214139475456546864
	parts := make([]int64, 0, 61)
	for i := 0; i < 30; i++ {
		parts = append(parts, 1, 2)
	}
	parts = append(parts, 3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		rng.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
		if got := NumPermutations(parts); got != want {
			t.Fatalf("call %d: NumPermutations = %d, want %d", i, got, want)
		}
	}
}

// TestNumPermutationsOverflowPanics pins the panic to exactly the inputs
// whose result does not fit.
func TestNumPermutationsOverflowPanics(t *testing.T) {
	distinct := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	if got := NumPermutations(distinct(20)); got != 2432902008176640000 {
		t.Fatalf("20! = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NumPermutations of 21 distinct parts should panic: 21! overflows int64")
		}
	}()
	NumPermutations(distinct(21))
}

// TestRankSortedMismatchPanics pins the precondition check.
func TestRankSortedMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length":  func() { RankSorted([]int64{1, 2}, []int64{1, 2, 3}, 6) },
		"element": func() { RankSorted([]int64{1, 4, 2}, []int64{1, 2, 3}, 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestDivExact pins the multiply-by-inverse quotient to the division it
// replaces, for every divisor in the table and one past it, on quotients
// up to where q·s nears int64's top.
func TestDivExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for s := 1; s <= len(oddInverse); s++ {
		for trial := 0; trial < 2000; trial++ {
			q := rng.Int63n(math.MaxInt64 / int64(s))
			if trial < 100 {
				q = int64(trial)
			}
			if got := divExact(q*int64(s), s); got != q {
				t.Fatalf("divExact(%d·%d, %d) = %d", q, s, s, got)
			}
		}
	}
}

// TestRankPermutationAllocatesNothing pins the stack-buffer path.
func TestRankPermutationAllocatesNothing(t *testing.T) {
	perm := []int64{3, 1, 2, 3, 1, 6}
	if n := testing.AllocsPerRun(100, func() { RankPermutation(perm) }); n != 0 {
		t.Fatalf("RankPermutation allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { NumPermutations(perm) }); n != 0 {
		t.Fatalf("NumPermutations allocates %v times per call", n)
	}
}
