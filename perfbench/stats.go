package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles the benchmark may report, highest
// first.
var tailPercentiles = []float64{99, 90, 50}

// highestPercentile returns the highest percentile in tailPercentiles that
// has at least ten samples beyond it, and its value. A percentile with
// fewer samples beyond it is decided by a handful of outliers and does not
// repeat between runs. ok is false when even the median lacks ten samples
// on each side.
func highestPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyondCount(len(xs), p) >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// beyondCount is the number of samples strictly above the p-th percentile
// of n samples.
func beyondCount(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100))
}

// geomean returns the geometric mean of positive xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// medianByItem groups samples by corpus item and returns each item's
// median.
func medianByItem(samples []sample) map[int]float64 {
	by := map[int][]float64{}
	for _, s := range samples {
		by[s.item] = append(by[s.item], s.sec)
	}
	out := make(map[int]float64, len(by))
	for k, xs := range by {
		out[k] = median(xs)
	}
	return out
}

// itemMedians returns each corpus item's median, in item order.
func itemMedians(samples []sample) []float64 {
	by := medianByItem(samples)
	keys := make([]int, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = by[k]
	}
	return out
}

// pairedRatio compares two sets of samples item by item: the geometric
// mean, over the items both sets hold, of the ratio of the items' medians.
func pairedRatio(a, b []sample) float64 {
	ma, mb := medianByItem(a), medianByItem(b)
	var rs []float64
	for item, x := range ma {
		if y, ok := mb[item]; ok && y > 0 {
			rs = append(rs, x/y)
		}
	}
	if len(rs) == 0 {
		return 1
	}
	return geomean(rs)
}
