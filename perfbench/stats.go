package main

import (
	"math"
	"slices"
)

// quantile is the exact nearest-rank q-quantile of sorted samples.
func quantile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// spread is the interquartile range over the median, with quartiles as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so it matches how the benchmark's runs are compared.
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// ratio is a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
