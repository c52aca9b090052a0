package main

import (
	"math"
	"sort"
)

// metric is one reported value: the median of its samples with quartiles
// and the sample count. No higher percentile is reported: a run has fewer
// than ten samples beyond any.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// spread is the interquartile range as a share of the median. Under four
// samples (setup_s and peak_rss_mb have one per process) the quartiles are
// extrapolations and say nothing, so the spread reads 0.
func (m metric) spread() float64 {
	if m.Value == 0 || m.N < 4 {
		return 0
	}
	return math.Abs((m.Q3 - m.Q1) / m.Value)
}

func summarize(samples []float64, unit string) metric {
	q1, q2, q3 := quartiles(samples)
	return metric{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the three quartiles by the exclusive method, the
// default of Python's statistics.quantiles(v, n=4): the i-th cut sits at
// position i(n+1)/4 of the sorted samples, interpolated linearly. One sample
// is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside 0..4 at the ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
