package main

import (
	"math"
	"testing"
)

func TestPercentileAndSamplesBeyond(t *testing.T) {
	sorted := make([]uint32, 3000)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	for _, tc := range []struct {
		q      float64
		value  uint32
		beyond int
	}{
		{0.50, 1500, 1500},
		{0.99, 2970, 30}, // 3000 samples leave 30 beyond p99
		{1.00, 3000, 0},
	} {
		v, b := percentile(sorted, tc.q)
		if v != tc.value || b != tc.beyond {
			t.Errorf("percentile(q=%v) = %d with %d beyond, want %d with %d", tc.q, v, b, tc.value, tc.beyond)
		}
	}
	if v, b := percentile([]uint32{7}, 0.99); v != 7 || b != 0 {
		t.Errorf("one sample: got %d with %d beyond", v, b)
	}
	if v, b := percentile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("no samples: got %d with %d beyond", v, b)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
}

// The expected values are Python's:
//
//	q = statistics.quantiles(v, n=4); (q[2]-q[0]) / statistics.median(v)
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		{[]float64{10.2, 9.8, 10.0, 10.1, 9.9, 10.4, 9.7, 10.0, 10.3, 9.9}, 0.34999999999999964 / 10.0},
		{[]float64{5, 7}, 3.0 / 6.0},
		{[]float64{3}, 0},
	} {
		if got := quartileSpread(tc.vs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.vs, got, tc.want)
		}
	}
}
