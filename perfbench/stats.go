package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail read off fewer samples than this is noise, not a measurement.
const minTail = 10

// rankIndex returns the nearest-rank index of quantile p in n ascending
// samples, and whether at least minTail samples lie beyond it.
func rankIndex(n int, p float64) (int, bool) {
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	i = max(0, min(i, n-1))
	return i, n-1-i >= minTail
}

// percentile returns the nearest-rank quantile p of ascending samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i, _ := rankIndex(len(sorted), p)
	return sorted[i]
}

// median returns the median of xs without reordering them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the latency percentile reported beside the median. p99 is
// not: on a shared 2-CPU VM it tracks the host's vCPU preemption, not the
// program. Across eight runs of identical serve-exact traffic it ranged
// 1.57-4.6 ms (quartile spread 0.27-0.58 of the median) while p50 moved
// 5% and p95 ranged 0.98-1.41 ms (spread 0.09-0.12).
const tail = 0.95

// windowStats are the closed-loop metrics of one run: the medians, over
// groups of consecutive window slices, of each group's request rate, p50
// and tail percentile. A group holds whole slices and enough samples
// that its tail percentile has minTail samples beyond it, so a burst of
// host noise moves one group's figures, not the run's.
type windowStats struct {
	rps, p50, tail float64
	groups         int
}

// summarize cuts the per-slice latencies of a closed loop into groups
// of consecutive slices, each closed as soon as its tail percentile has
// minTail samples beyond it; a short remainder joins the last group. It
// fails if all the samples together are too few for the tail.
func summarize(slices [][]float64, slice time.Duration) (windowStats, error) {
	var groups [][]float64
	var widths []int // slices per group
	var cur []float64
	n := 0
	for _, s := range slices {
		cur, n = append(cur, s...), n+1
		if _, ok := rankIndex(len(cur), tail); ok {
			groups, widths = append(groups, cur), append(widths, n)
			cur, n = nil, 0
		}
	}
	if len(groups) == 0 {
		return windowStats{}, fmt.Errorf("only %d timed requests: p%g needs %d beyond it", len(cur), 100*tail, minTail)
	}
	last := len(groups) - 1
	groups[last], widths[last] = append(groups[last], cur...), widths[last]+n
	var rates, p50s, tails []float64
	for i, g := range groups {
		sort.Float64s(g)
		rates = append(rates, float64(len(g))/(float64(widths[i])*slice.Seconds()))
		p50s = append(p50s, percentile(g, 0.5))
		tails = append(tails, percentile(g, tail))
	}
	return windowStats{median(rates), median(p50s), median(tails), len(groups)}, nil
}
