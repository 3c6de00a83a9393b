package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as Python's statistics.quantiles with
// method="inclusive"). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailMinBeyond is how many observations the tail rule keeps strictly
// beyond the reported value.
const tailMinBeyond = 10

// tailRule picks the highest percentile that still has at least
// tailMinBeyond observations beyond it: with n observations sorted
// ascending it returns the (n−10)-th smallest value and its percentile
// 100·(n−10)/n. A run with at most 10 observations has no such percentile;
// the rule then falls back to the smallest value, so the result is always
// defined, and the caller records the percentile next to the value.
func tailRule(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	k := n - tailMinBeyond
	if k < 1 {
		k = 1
	}
	s := sorted(xs)
	return s[k-1], 100 * float64(k) / float64(n)
}
