package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// naiveSSE computes Σ(x−mean)² directly.
func naiveSSE(data []int64) float64 {
	if len(data) == 0 {
		return 0
	}
	var sum float64
	for _, x := range data {
		sum += float64(x)
	}
	mean := sum / float64(len(data))
	var sse float64
	for _, x := range data {
		d := float64(x) - mean
		sse += d * d
	}
	return sse
}

func checkPartition(t *testing.T, h *Histogram, n int64) {
	t.Helper()
	var prev int64
	for i := 0; i < h.Buckets(); i++ {
		b := h.Bucket(i)
		if b.Lo != prev {
			t.Fatalf("bucket %d starts at %d, want %d (non-contiguous)", i, b.Lo, prev)
		}
		if b.Hi <= b.Lo {
			t.Fatalf("bucket %d empty: [%d,%d)", i, b.Lo, b.Hi)
		}
		prev = b.Hi
	}
	if prev != n {
		t.Fatalf("buckets end at %d, want %d", prev, n)
	}
}

func TestPrefixes(t *testing.T) {
	data := []int64{3, 1, 4, 1, 5}
	p := newPrefixes(data)
	if p.rangeSum(0, 5) != 14 || p.rangeSum(1, 3) != 5 || p.rangeSum(2, 2) != 0 {
		t.Fatal("rangeSum wrong")
	}
	if got, want := p.rangeSSE(0, 5), naiveSSE(data); math.Abs(got-want) > 1e-9 {
		t.Fatalf("rangeSSE = %v, want %v", got, want)
	}
	if p.rangeSSE(3, 3) != 0 {
		t.Fatal("empty range SSE should be 0")
	}
	if p.rangeSSE(2, 3) != 0 {
		t.Fatal("singleton SSE should be 0")
	}
}

func TestEquiWidthBasics(t *testing.T) {
	data := []int64{1, 1, 1, 9, 9, 9}
	h := EquiWidth(data, 2)
	if h.Kind() != "equi-width" || h.Buckets() != 2 || h.DomainSize() != 6 {
		t.Fatal("metadata wrong")
	}
	checkPartition(t, h, 6)
	if h.Estimate(0) != 1 || h.Estimate(5) != 9 {
		t.Fatalf("estimates wrong: %v %v", h.Estimate(0), h.Estimate(5))
	}
	if totalSSE(h) != 0 {
		t.Fatalf("perfectly split data should have SSE 0, got %v", totalSSE(h))
	}
}

func TestEquiWidthWidths(t *testing.T) {
	data := make([]int64, 100)
	h := EquiWidth(data, 7)
	checkPartition(t, h, 100)
	for i := 0; i < h.Buckets(); i++ {
		w := h.Bucket(i).Width()
		if w < 100/7 || w > 100/7+1 {
			t.Fatalf("bucket %d width %d not near-equal", i, w)
		}
	}
}

func TestEquiDepthMass(t *testing.T) {
	// Mass concentrated at the front: equi-depth must cut the front finely.
	data := []int64{100, 100, 1, 1, 1, 1, 1, 1, 1, 1}
	h := EquiDepth(data, 2)
	checkPartition(t, h, 10)
	if h.Bucket(0).Width() >= h.Bucket(1).Width() {
		t.Fatalf("equi-depth should make the heavy region narrow: widths %d, %d",
			h.Bucket(0).Width(), h.Bucket(1).Width())
	}
	// Bucket masses should be roughly balanced.
	m0, m1 := h.Bucket(0).Sum, h.Bucket(1).Sum
	if m0 < m1/3 || m1 < m0/3 {
		t.Fatalf("bucket masses too skewed: %d vs %d", m0, m1)
	}
}

func TestEquiDepthAllZeros(t *testing.T) {
	data := make([]int64, 20)
	h := EquiDepth(data, 4)
	checkPartition(t, h, 20)
	if h.Estimate(7) != 0 {
		t.Fatal("all-zero data should estimate 0")
	}
}

func TestMaxDiffBoundaries(t *testing.T) {
	// Jumps at 3 and 6: with β=3 the boundaries must land there.
	data := []int64{1, 1, 1, 50, 50, 50, 9, 9, 9}
	h := MaxDiff(data, 3)
	checkPartition(t, h, 9)
	if h.Buckets() != 3 {
		t.Fatalf("buckets = %d, want 3", h.Buckets())
	}
	if h.Bucket(1).Lo != 3 || h.Bucket(2).Lo != 6 {
		t.Fatalf("boundaries at %d, %d; want 3, 6", h.Bucket(1).Lo, h.Bucket(2).Lo)
	}
	if totalSSE(h) != 0 {
		t.Fatal("piecewise-constant data should have zero SSE")
	}
}

func TestVOptimalDPExactOnPiecewise(t *testing.T) {
	data := []int64{5, 5, 5, 5, 2, 2, 2, 8, 8, 8, 8, 8}
	h := VOptimalDP(data, 3)
	checkPartition(t, h, int64(len(data)))
	if totalSSE(h) > 1e-9 {
		t.Fatalf("DP should find the zero-SSE partition, got %v", totalSSE(h))
	}
	if h.Bucket(1).Lo != 4 || h.Bucket(2).Lo != 7 {
		t.Fatalf("DP boundaries %d, %d; want 4, 7", h.Bucket(1).Lo, h.Bucket(2).Lo)
	}
}

// bruteForceVOptimalSSE finds the true minimal SSE by trying all
// partitions (exponential; tiny inputs only).
func bruteForceVOptimalSSE(data []int64, beta int) float64 {
	n := len(data)
	p := newPrefixes(data)
	best := math.Inf(1)
	// Choose beta-1 boundaries among positions 1..n-1.
	var rec func(startIdx int, starts []int64)
	rec = func(startIdx int, starts []int64) {
		if len(starts) == beta {
			var sse float64
			for i, lo := range starts {
				hi := int64(n)
				if i+1 < len(starts) {
					hi = starts[i+1]
				}
				sse += p.rangeSSE(lo, hi)
			}
			if sse < best {
				best = sse
			}
			return
		}
		for s := startIdx; s < n; s++ {
			rec(s+1, append(starts, int64(s)))
		}
	}
	rec(1, []int64{0})
	return best
}

func TestVOptimalDPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(8)
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(rng.Intn(30))
		}
		for beta := 1; beta <= 4; beta++ {
			h := VOptimalDP(data, beta)
			want := bruteForceVOptimalSSE(data, clampBeta(beta, n))
			if math.Abs(totalSSE(h)-want) > 1e-6 {
				t.Fatalf("trial %d β=%d: DP SSE %v, brute force %v (data %v)",
					trial, beta, totalSSE(h), want, data)
			}
		}
	}
}

func TestVOptimalGreedyNearOptimal(t *testing.T) {
	// Greedy must be within a modest factor of the DP optimum and always a
	// valid partition with the requested bucket count.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(50)
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(rng.Intn(100))
		}
		for _, beta := range []int{2, 4, 8, 16} {
			g := VOptimal(data, beta)
			d := VOptimalDP(data, beta)
			checkPartition(t, g, int64(n))
			if g.Buckets() != beta {
				t.Fatalf("greedy buckets = %d, want %d", g.Buckets(), beta)
			}
			if totalSSE(d) > 1e-9 && totalSSE(g) > 3*totalSSE(d)+1e-9 {
				t.Fatalf("greedy SSE %v more than 3× optimum %v (β=%d)",
					totalSSE(g), totalSSE(d), beta)
			}
		}
	}
}

func TestVOptimalFlatData(t *testing.T) {
	data := make([]int64, 16)
	for i := range data {
		data[i] = 7
	}
	h := VOptimal(data, 4)
	checkPartition(t, h, 16)
	if h.Buckets() != 4 {
		t.Fatalf("flat data should still split to 4 buckets, got %d", h.Buckets())
	}
	if h.Estimate(3) != 7 {
		t.Fatal("flat estimate wrong")
	}
}

func TestVOptimalSingleBucket(t *testing.T) {
	data := []int64{1, 2, 3, 4}
	h := VOptimal(data, 1)
	if h.Buckets() != 1 {
		t.Fatalf("buckets = %d, want 1", h.Buckets())
	}
	if h.Estimate(0) != 2.5 {
		t.Fatalf("mean estimate = %v, want 2.5", h.Estimate(0))
	}
}

func TestBetaLargerThanDomain(t *testing.T) {
	data := []int64{4, 8, 15}
	for _, build := range []func([]int64, int) *Histogram{EquiWidth, EquiDepth, MaxDiff, VOptimal, VOptimalDP} {
		h := build(data, 10)
		checkPartition(t, h, 3)
		if h.Buckets() > 3 {
			t.Fatalf("%s: %d buckets exceed domain size", h.Kind(), h.Buckets())
		}
		// With β ≥ N every estimate is exact.
		for i := int64(0); i < 3; i++ {
			if h.Estimate(i) != float64(data[i]) {
				t.Fatalf("%s: singleton estimate wrong at %d", h.Kind(), i)
			}
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty data": func() { VOptimal(nil, 3) },
		"zero beta":  func() { VOptimal([]int64{1}, 0) },
		"neg beta":   func() { EquiWidth([]int64{1}, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFindAndEstimatePanics(t *testing.T) {
	h := EquiWidth([]int64{1, 2, 3, 4}, 2)
	if h.Find(0) != 0 || h.Find(3) != 1 {
		t.Fatal("Find wrong")
	}
	for _, idx := range []int64{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Find(%d) should panic", idx)
				}
			}()
			h.Find(idx)
		}()
	}
}

func TestBucketAccessors(t *testing.T) {
	b := Bucket{Lo: 2, Hi: 6, Sum: 12}
	if b.Width() != 4 || b.Mean() != 3 {
		t.Fatalf("Width/Mean = %d/%v", b.Width(), b.Mean())
	}
}

func TestHistogramSSEConsistency(t *testing.T) {
	// totalSSE must equal Σ naive SSE over bucket slices.
	rng := rand.New(rand.NewSource(4))
	data := make([]int64, 200)
	for i := range data {
		data[i] = int64(rng.Intn(50))
	}
	for _, h := range []*Histogram{EquiWidth(data, 9), EquiDepth(data, 9), VOptimal(data, 9), MaxDiff(data, 9)} {
		var want float64
		for i := 0; i < h.Buckets(); i++ {
			b := h.Bucket(i)
			want += naiveSSE(data[b.Lo:b.Hi])
		}
		if math.Abs(totalSSE(h)-want) > 1e-6 {
			t.Fatalf("%s: total SSE %v != naive %v", h.Kind(), totalSSE(h), want)
		}
	}
}

func TestVOptimalBeatsEquiWidthOnSkew(t *testing.T) {
	// On a skewed distribution, V-Optimal must achieve ≤ equi-width SSE.
	rng := rand.New(rand.NewSource(5))
	data := make([]int64, 300)
	for i := range data {
		if rng.Intn(10) == 0 {
			data[i] = int64(1000 + rng.Intn(1000))
		} else {
			data[i] = int64(rng.Intn(10))
		}
	}
	for _, beta := range []int{4, 16, 64} {
		vo, ew := VOptimal(data, beta), EquiWidth(data, beta)
		if totalSSE(vo) > totalSSE(ew)+1e-9 {
			t.Fatalf("β=%d: V-Optimal SSE %v worse than equi-width %v",
				beta, totalSSE(vo), totalSSE(ew))
		}
	}
}

func TestEndBiased(t *testing.T) {
	data := []int64{1, 100, 2, 90, 3}
	e := NewEndBiased(data, 3) // 2 singletons + rest
	if e.Buckets() != 3 {
		t.Fatalf("Buckets = %d, want 3", e.Buckets())
	}
	if e.Estimate(1) != 100 || e.Estimate(3) != 90 {
		t.Fatal("top values must be exact")
	}
	if got := e.Estimate(0); got != 2 { // (1+2+3)/3
		t.Fatalf("rest mean = %v, want 2", got)
	}
}

func TestEndBiasedAllSingleton(t *testing.T) {
	data := []int64{5, 6}
	e := NewEndBiased(data, 10)
	if e.Estimate(0) != 5 || e.Estimate(1) != 6 {
		t.Fatal("β ≥ N must be exact")
	}
}

func TestEstimatorInterface(t *testing.T) {
	var _ Estimator = &Histogram{}
	var _ Estimator = &EndBiased{}
}

// totalSSE is the total within-bucket sum of squared errors — the quantity
// V-Optimal minimizes and domain ordering tries to shrink.
func totalSSE(h *Histogram) float64 {
	var t float64
	for _, b := range h.buckets {
		t += b.SSE
	}
	return t
}
