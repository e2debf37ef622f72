package workload

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

var abc = []string{"a", "b", "c"}

func TestQueryPoolDistinctAndBounded(t *testing.T) {
	pool, err := QueryPool(abc, 3, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 20 {
		t.Fatalf("pool size %d, want 20", len(pool))
	}
	seen := map[string]bool{}
	for _, q := range pool {
		p := strings.Split(q, "/")
		if len(p) < 1 || len(p) > 3 {
			t.Fatalf("%q: path length %d outside [1,3]", q, len(p))
		}
		for _, l := range p {
			if !slices.Contains(abc, l) {
				t.Fatalf("%q: label %q outside the vocabulary", q, l)
			}
		}
		if seen[q] {
			t.Fatalf("duplicate pool entry %q", q)
		}
		seen[q] = true
	}
}

// TestQueryPoolKeepsItsDraws pins a seeded pool's queries: the same
// random draws make the same label paths in the same order, whatever
// form the pool is returned in.
func TestQueryPoolKeepsItsDraws(t *testing.T) {
	pool, err := QueryPool(abc, 3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a/c/c", "a/b", "b/a/c", "a/c", "c/a", "c/c/c", "c", "b/a"}
	if !slices.Equal(pool, want) {
		t.Fatalf("QueryPool(abc, 3, 8, 1) = %q, want %q", pool, want)
	}
}

func TestQueryPoolClampsToDomain(t *testing.T) {
	// 2 labels, maxLen 2 → domain 2 + 4 = 6 distinct paths.
	pool, err := QueryPool(abc[:2], 2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 6 {
		t.Fatalf("pool size %d, want the whole 6-path domain", len(pool))
	}
}

func TestQueryPoolRejectsBadArgs(t *testing.T) {
	for _, args := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := QueryPool(abc[:args[0]], args[1], args[2], 1); err == nil {
			t.Fatalf("QueryPool(%v) accepted invalid args", args)
		}
	}
}

func TestZipfTraceDeterministic(t *testing.T) {
	opt := TraceOptions{Rate: 1000, N: 500, Seed: 42}
	a, err := ZipfTrace(16, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ZipfTrace(16, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("trace lengths %d, %d, want 500", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Rank != b[i].Rank {
			t.Fatalf("arrival %d differs between identical traces: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestZipfTraceShape(t *testing.T) {
	const poolSize = 32
	tr, err := ZipfTrace(poolSize, TraceOptions{S: 1.5, Rate: 10000, N: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, poolSize)
	var prev time.Duration
	for i, a := range tr {
		if a.At < prev {
			t.Fatalf("arrival %d at %v before predecessor %v: times must be nondecreasing", i, a.At, prev)
		}
		prev = a.At
		if a.Rank < 0 || a.Rank >= poolSize {
			t.Fatalf("arrival %d rank %d outside pool", i, a.Rank)
		}
		counts[a.Rank]++
	}
	// Zipf skew: rank 0 must dominate the tail's average.
	tail := 0
	for _, c := range counts[1:] {
		tail += c
	}
	if counts[0] <= tail/len(counts[1:]) {
		t.Fatalf("rank 0 drawn %d times, no hotter than the tail mean %d — not Zipf-skewed",
			counts[0], tail/len(counts[1:]))
	}
	// Mean inter-arrival should be near 1/rate (Poisson at 10k qps over
	// 5k arrivals: generous 3x tolerance either way).
	mean := float64(tr[len(tr)-1].At) / float64(len(tr)-1)
	want := float64(time.Second) / 10000
	if mean < want/3 || mean > want*3 {
		t.Fatalf("mean inter-arrival %v implausible for rate 10000 (want ≈ %v)",
			time.Duration(mean), time.Duration(want))
	}
	if math.IsNaN(mean) {
		t.Fatal("NaN mean inter-arrival")
	}
}

func TestZipfTraceSaturationMode(t *testing.T) {
	tr, err := ZipfTrace(4, TraceOptions{N: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range tr {
		if a.At != 0 {
			t.Fatalf("saturation-mode arrival %d at %v, want 0", i, a.At)
		}
	}
}

func TestZipfTraceRejectsBadOptions(t *testing.T) {
	for name, c := range map[string]struct {
		poolSize int
		opt      TraceOptions
	}{
		"empty pool": {0, TraceOptions{N: 10}},
		"zero n":     {4, TraceOptions{}},
		"s ≤ 1":      {4, TraceOptions{N: 10, S: 0.9}},
		"v < 1":      {4, TraceOptions{N: 10, V: 0.5}},
	} {
		if _, err := ZipfTrace(c.poolSize, c.opt); err == nil {
			t.Fatalf("%s: ZipfTrace accepted invalid options", name)
		}
	}
}

// TestBurstyTraceDeterministic pins that both bursty modes are pure
// functions of their options.
func TestBurstyTraceDeterministic(t *testing.T) {
	for _, mode := range []string{ArrivalOnOff, ArrivalGamma} {
		opt := TraceOptions{Rate: 2000, N: 400, Seed: 11, Arrival: mode}
		a, err := ZipfTrace(16, opt)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		b, err := ZipfTrace(16, opt)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for i := range a {
			if a[i].At != b[i].At || a[i].Rank != b[i].Rank {
				t.Fatalf("%s arrival %d nondeterministic: %+v vs %+v", mode, i, a[i], b[i])
			}
		}
	}
}

// TestOnOffTraceShape pins the ON/OFF structure: every arrival lands in
// an ON window, the mean rate stays near the requested one, and within-ON
// arrivals run at the elevated peak rate.
func TestOnOffTraceShape(t *testing.T) {
	on, off := 50*time.Millisecond, 150*time.Millisecond
	tr, err := ZipfTrace(16, TraceOptions{
		Rate: 4000, N: 4000, Seed: 3,
		Arrival: ArrivalOnOff, OnDur: on, OffDur: off,
	})
	if err != nil {
		t.Fatal(err)
	}
	cycle := on + off
	var prev time.Duration
	for i, a := range tr {
		if a.At < prev {
			t.Fatalf("arrival %d at %v before predecessor %v", i, a.At, prev)
		}
		prev = a.At
		if pos := a.At % cycle; pos >= on {
			t.Fatalf("arrival %d at %v falls %v into the cycle — inside the OFF window [%v,%v)",
				i, a.At, pos, on, cycle)
		}
	}
	// Mean rate over the whole trace ≈ Rate (generous 3× tolerance).
	mean := float64(tr[len(tr)-1].At) / float64(len(tr)-1)
	want := float64(time.Second) / 4000
	if mean < want/3 || mean > want*3 {
		t.Fatalf("mean inter-arrival %v implausible for mean rate 4000 (want ≈ %v)",
			time.Duration(mean), time.Duration(want))
	}
}

// TestGammaTraceShape pins that the gamma mode keeps the requested mean
// rate and, at shape < 1, is burstier than Poisson (higher gap variance).
func TestGammaTraceShape(t *testing.T) {
	gaps := func(arrival string, shape float64) []float64 {
		tr, err := ZipfTrace(16, TraceOptions{
			Rate: 10000, N: 6000, Seed: 5,
			Arrival: arrival, GammaShape: shape,
		})
		if err != nil {
			t.Fatalf("%s: %v", arrival, err)
		}
		out := make([]float64, len(tr)-1)
		for i := 1; i < len(tr); i++ {
			out[i-1] = float64(tr[i].At - tr[i-1].At)
		}
		return out
	}
	stats := func(xs []float64) (mean, variance float64) {
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		return mean, variance / float64(len(xs))
	}
	gMean, gVar := stats(gaps(ArrivalGamma, 0.25))
	eMean, eVar := stats(gaps(ArrivalExp, 0))
	want := float64(time.Second) / 10000
	if gMean < want/3 || gMean > want*3 {
		t.Fatalf("gamma mean gap %v implausible for rate 10000 (want ≈ %v)",
			time.Duration(gMean), time.Duration(want))
	}
	// Squared coefficient of variation: shape 0.25 should have ~4× the
	// relative variance of exponential; require a clear 2× margin.
	gCV, eCV := gVar/(gMean*gMean), eVar/(eMean*eMean)
	if gCV < 2*eCV {
		t.Fatalf("gamma(0.25) CV² %.2f not burstier than exponential CV² %.2f", gCV, eCV)
	}
}

func TestBurstyTraceRejectsBadOptions(t *testing.T) {
	for name, opt := range map[string]TraceOptions{
		"unknown mode":         {N: 10, Rate: 100, Arrival: "square"},
		"onoff in saturation":  {N: 10, Arrival: ArrivalOnOff},
		"gamma in saturation":  {N: 10, Arrival: ArrivalGamma},
		"gamma shape too high": {N: 10, Rate: 100, Arrival: ArrivalGamma, GammaShape: 65},
	} {
		if _, err := ZipfTrace(4, opt); err == nil {
			t.Fatalf("%s: ZipfTrace accepted invalid options", name)
		}
	}
}

// FuzzBurstyTrace extends the trace contract to the bursty arrival
// modes: any finite options either error fast or yield a deterministic,
// nondecreasing, in-pool trace — and ON/OFF arrivals never land in an
// OFF window.
func FuzzBurstyTrace(f *testing.F) {
	f.Add(1, 200, int64(1), 500.0, int64(50), int64(150), 0.5)
	f.Add(2, 64, int64(9), 2000.0, int64(0), int64(0), 0.25)
	f.Add(1, 16, int64(3), -1.0, int64(-5), int64(7), 64.0)
	f.Fuzz(func(t *testing.T, modeSel, n int, seed int64, rate float64, onMs, offMs int64, shape float64) {
		if n > 512 {
			t.Skip()
		}
		mode := ArrivalOnOff
		if modeSel%2 == 0 {
			mode = ArrivalGamma
		}
		const poolSize = 16
		opt := TraceOptions{
			Rate: rate, N: n, Seed: seed, Arrival: mode,
			OnDur: time.Duration(onMs) * time.Millisecond, OffDur: time.Duration(offMs) * time.Millisecond,
			GammaShape: shape,
		}
		tr, err := ZipfTrace(poolSize, opt)
		if err != nil {
			return // invalid options must error, never panic
		}
		if len(tr) != n {
			t.Fatalf("trace has %d arrivals, want %d", len(tr), n)
		}
		onDur, offDur := opt.OnDur, opt.OffDur
		if onDur <= 0 {
			onDur = DefaultOnDur
		}
		if offDur <= 0 {
			offDur = DefaultOffDur
		}
		var prev time.Duration
		for i, a := range tr {
			if a.At < prev {
				t.Fatalf("arrival %d time %v < predecessor %v", i, a.At, prev)
			}
			prev = a.At
			if a.Rank < 0 || a.Rank >= poolSize {
				t.Fatalf("arrival %d rank %d outside pool of %d", i, a.Rank, poolSize)
			}
			if mode == ArrivalOnOff && a.At%(onDur+offDur) >= onDur {
				t.Fatalf("arrival %d at %v inside the OFF window", i, a.At)
			}
		}
		again, err := ZipfTrace(poolSize, opt)
		if err != nil {
			t.Fatalf("second generation errored: %v", err)
		}
		if !slices.Equal(tr, again) {
			t.Fatal("trace nondeterministic")
		}
	})
}

// FuzzZipfTrace pins the trace generator's contract over arbitrary
// parameters: generation either fails fast with an error or yields
// exactly n arrivals with nondecreasing times and in-pool ranks — and is
// deterministic for a seed.
func FuzzZipfTrace(f *testing.F) {
	f.Add(3, 3, 16, 200, int64(1), 1.2, 1.0, 1000.0)
	f.Add(1, 1, 1, 1, int64(0), 0.0, 0.0, 0.0)
	f.Add(5, 2, 40, 64, int64(9), 2.5, 3.0, -1.0)
	f.Fuzz(func(t *testing.T, numLabels, maxLen, poolN, n int, seed int64, s, v, rate float64) {
		// Bound the work, not the value space: the generator must behave
		// for any finite parameters, but the fuzzer should not spend its
		// budget building million-entry pools.
		if numLabels > 8 || maxLen > 4 || poolN > 64 || n > 512 {
			t.Skip()
		}
		vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		pool, err := QueryPool(vocab[:max(numLabels, 0)], maxLen, poolN, seed)
		if err != nil {
			if numLabels >= 1 && maxLen >= 1 && poolN >= 1 {
				t.Fatalf("QueryPool rejected valid args: %v", err)
			}
			return
		}
		opt := TraceOptions{S: s, V: v, Rate: rate, N: n, Seed: seed}
		tr, err := ZipfTrace(len(pool), opt)
		if err != nil {
			return // invalid options must error, never panic
		}
		if len(tr) != n {
			t.Fatalf("trace has %d arrivals, want %d", len(tr), n)
		}
		var prev time.Duration
		for i, a := range tr {
			if a.At < prev {
				t.Fatalf("arrival %d time %v < predecessor %v", i, a.At, prev)
			}
			prev = a.At
			if a.Rank < 0 || a.Rank >= len(pool) {
				t.Fatalf("arrival %d rank %d outside pool of %d", i, a.Rank, len(pool))
			}
		}
		again, err := ZipfTrace(len(pool), opt)
		if err != nil {
			t.Fatalf("second generation errored: %v", err)
		}
		if !slices.Equal(tr, again) {
			t.Fatal("trace nondeterministic")
		}
	})
}
