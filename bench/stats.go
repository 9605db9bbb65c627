package main

import (
	"math"
	"sort"
)

// stat summarises the timed samples of one metric in one run.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Note   string  `json:"note,omitempty"`
}

// spread is the sample range as a share of the median: how far the repeats
// inside one run disagree. One sample has no spread to report.
func (s stat) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}

func summarize(samples []float64) stat {
	if len(samples) == 0 {
		return stat{}
	}
	s := sorted(samples)
	return stat{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice (0 when empty).
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(v []float64) float64 { return median(sorted(v)) }

// percentile returns the p-th percentile (0..100) of an ascending slice by
// the nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // 99.9% of 10000 is 9990, not 9990.000000000001
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile returns the highest percentile of the ladder 50, 90, 99,
// 99.9, 99.99, ... that still has at least ten samples beyond it, and its
// value. Past that point a percentile is a handful of outliers and repeats
// badly. ok is false when even the median has fewer than ten samples above it.
func tailPercentile(s []float64) (pct, value float64, ok bool) {
	// 1/d of the samples lie beyond the candidate percentile.
	for _, d := range []int{2, 10, 100, 1000, 10000, 100000, 1000000} {
		if len(s)/d < 10 {
			break
		}
		pct, ok = 100-100/float64(d), true
	}
	return pct, percentile(s, pct), ok
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so the
// number printed here is the one the acceptance procedure computes.
func quartileSpread(values []float64) float64 {
	s := sorted(values)
	m := len(s)
	if m < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4) // outside 0..4 at the ends: extrapolates, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
