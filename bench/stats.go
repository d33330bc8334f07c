package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer observations is an anecdote, not a
// measurement (choosing-metrics guide, section 1).
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted is the q-quantile (0 <= q <= 1) of an ascending slice
// by the nearest-rank rule: the smallest sample with at least q of the
// mass at or below it. Nearest-rank never interpolates, so the value is
// always one that was actually observed. An empty slice yields NaN.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the 0.5-quantile of xs (NaN when empty).
func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// beyond reports how many samples of an ascending slice lie strictly
// above its q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tail returns the q-quantile of xs together with the number of samples
// beyond it and whether that number supports reporting it (>= minBeyond).
func tail(xs []float64, q float64) (value float64, nBeyond int, ok bool) {
	s := sorted(xs)
	nBeyond = beyond(len(s), q)
	return quantileSorted(s, q), nBeyond, nBeyond >= minBeyond
}
