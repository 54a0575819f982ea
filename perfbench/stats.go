package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs. Peak RSS uses it instead of the
// median: a pass's peak is bimodal (whether two slab decodes overlap),
// and the median of a few passes jumps between the modes.
func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has tailBeyond
// samples above it, with that percentile. With too few samples it
// returns the maximum and ok = false.
func tail(xs []float64) (v, pct float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0, false
	}
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	k := n - tailBeyond - 1 // s[k] has exactly tailBeyond samples above it
	return s[k], 100 * float64(k+1) / float64(n), true
}
