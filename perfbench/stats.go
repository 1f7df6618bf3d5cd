package main

import (
	"math"
	"sort"
)

// quantiles summarises a sample of nanosecond values exactly (no
// buckets).
type quantiles struct {
	N             int
	P50, P99, Max int64
}

// quantilesOf sorts vs in place.
func quantilesOf(vs []int64) quantiles {
	if len(vs) == 0 {
		return quantiles{}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return quantiles{N: len(vs), P50: pick(vs, 0.50), P99: pick(vs, 0.99), Max: vs[len(vs)-1]}
}

// pick returns the nearest-rank q-quantile of sorted vs.
func pick(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// latencies returns the sample's latencies, counting a failed request as
// missing every limit (+Inf ns).
func latencies(rs []sent) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		if r.ok {
			out[i] = r.latency().Nanoseconds()
		} else {
			out[i] = math.MaxInt64
		}
	}
	return out
}

func failures(rs []sent) int {
	n := 0
	for _, r := range rs {
		if !r.ok {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowedP50 splits time-ordered values into consecutive windows, takes
// each window's median, and returns the median of those medians. Other
// tenants of a shared host steal CPU in bursts; a burst inflates only the
// windows it covers, while a regression covering more than half the phase
// moves the figure.
func windowedP50(vs []int64, k int) int64 {
	k = min(k, len(vs))
	if k == 0 {
		return 0
	}
	meds := make([]int64, k)
	for w := 0; w < k; w++ {
		win := append([]int64(nil), vs[w*len(vs)/k:(w+1)*len(vs)/k]...)
		meds[w] = quantilesOf(win).P50
	}
	return quantilesOf(meds).P50
}
