package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. It sorts xs in place; an empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// roundQuantile is the q-quantile of a latency measured in whole rounds,
// with each delivery counted in round k taken as spread evenly over
// (k-1, k]: the grouped-data estimator. hist[k] counts deliveries that
// took k rounds (hist[0] is unused).
func roundQuantile(hist []int, q float64) float64 {
	total := 0
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	cum := 0.0
	for k := 1; k < len(hist); k++ {
		c := float64(hist[k])
		if c > 0 && cum+c >= want {
			return float64(k-1) + (want-cum)/c
		}
		cum += c
	}
	return float64(len(hist) - 1)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the mean of the middle half of xs (the interquartile mean):
// a figure over many slices of a run that neither a few stalled slices
// nor the choice of one middle slice can move much. It sorts xs in place.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	s := 0.0
	for _, x := range xs[lo:hi] {
		s += x
	}
	return s / float64(hi-lo)
}
