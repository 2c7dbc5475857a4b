package main

import (
	"math"
	"sort"
)

// minBeyond is the least number of samples that must lie beyond a reported
// percentile: with fewer, the percentile is a handful of outliers and not a
// property of the run.
const minBeyond = 10

// rankOf is the 0-based index of the nearest-rank q-quantile among n sorted
// samples: the smallest sample with at least q·n samples at or below it.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// quantile returns the nearest-rank q-quantile of sorted, and whether at
// least minBeyond samples lie beyond it (quantiles at or below the median
// are always supported once there are that many samples at all).
func quantile(sorted []uint32, q float64) (v uint32, supported bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	r := rankOf(len(sorted), q)
	return sorted[r], len(sorted)-1-r >= minBeyond
}

// median returns the middle value of xs (mean of the middle two when even).
// It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the rule the acceptance spread is computed with.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// maxRelDev is the largest |x − median| ÷ median over xs: the worst
// disagreement between one run and the typical run.
func maxRelDev(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	var worst float64
	for _, x := range xs {
		if d := math.Abs(x-m) / m; d > worst {
			worst = d
		}
	}
	return worst
}
