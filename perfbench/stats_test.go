package main

import (
	"testing"
	"time"
)

func TestRankIndexKeepsTenSamplesBeyondTheTail(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   int
		enough bool
	}{
		{1000, 0.99, 989, true}, // exactly 10 beyond
		{200, 0.95, 189, true},
		{199, 0.95, 189, false},
		{999, 0.99, 989, false}, // 9 beyond: too few for a p99
		{100, 0.5, 49, true},
		{20, 0.5, 9, true},
		{19, 0.5, 9, false},
		{1, 0.99, 0, false},
		{0, 0.5, 0, false},
	} {
		got, enough := rankIndex(tc.n, tc.p)
		if got != tc.want || enough != tc.enough {
			t.Errorf("rankIndex(%d, %g) = %d, %v; want %d, %v", tc.n, tc.p, got, enough, tc.want, tc.enough)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := percentile(s, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %g, want 2", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSummarizeGroupsSlicesUntilTheTailIsMeasured(t *testing.T) {
	fill := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	// 120 samples a slice: a group needs two slices (240 ≥ 200, so its
	// p95 has 10 beyond), and the fifth slice is folded into the second
	// group.
	slices := [][]float64{fill(120, 1), fill(120, 1), fill(120, 3), fill(120, 3), fill(120, 3)}
	ws, err := summarize(slices, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ws.groups != 2 {
		t.Fatalf("%d groups, want 2", ws.groups)
	}
	if ws.rps != 120 || ws.p50 != 2 || ws.tail != 2 {
		t.Errorf("rps %g p50 %g p95 %g; want medians over the groups 120, 2, 2", ws.rps, ws.p50, ws.tail)
	}
	if _, err := summarize([][]float64{fill(100, 1), fill(99, 1)}, time.Second); err == nil {
		t.Error("199 samples cannot give a p95 with 10 beyond it, want an error")
	}
	ws, err = summarize([][]float64{fill(100, 1), fill(100, 1)}, time.Second)
	if err != nil || ws.groups != 1 || ws.rps != 100 {
		t.Errorf("200 samples over 2 s: %+v, %v; want one group at 100/s", ws, err)
	}
}
