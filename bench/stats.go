package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// and how many samples lie strictly beyond that rank. It returns 0, 0 on
// an empty slice.
func percentile(sorted []uint32, q float64) (value uint32, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// median returns the middle of vs (the mean of the two middle values for
// an even count), 0 when empty.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median, with the quartiles of Python's
// statistics.quantiles(vs, n=4) (the exclusive method) — the spread the
// driver computes over ten runs. It needs at least two values.
func quartileSpread(vs []float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	quart := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}
