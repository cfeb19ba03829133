package main

import "testing"

func TestSelfTimesOverNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "run", Layer: "", Parent: -1, Start: 0, End: 100},
		{Name: "build", Layer: "a", Parent: 0, Start: 10, End: 40},
		{Name: "inner", Layer: "b", Parent: 1, Start: 20, End: 30},
		{Name: "serve", Layer: "a", Parent: 0, Start: 50, End: 90},
		// Two overlapping children cover [55,80] of serve once, not twice.
		{Name: "x", Layer: "c", Parent: 3, Start: 55, End: 70},
		{Name: "y", Layer: "c", Parent: 3, Start: 60, End: 80},
	}
	got := selfTimes(spans)
	want := map[string]int64{"": 30, "a": 20 + 15, "b": 10, "c": 15 + 20}
	var sum int64
	for l, v := range want {
		if got[l] != v {
			t.Errorf("self[%q] = %d, want %d", l, got[l], v)
		}
	}
	for _, v := range got {
		sum += v
	}
	// Self times of disjoint children add up to the root's duration;
	// the overlap of x and y is counted once per child span, so the
	// total exceeds it by exactly the 10 ns they share.
	if sum != 100+10 {
		t.Errorf("self times sum to %d, want 110", sum)
	}
}

func TestRecorderNestsAndSumsToWall(t *testing.T) {
	r := newRecorder()
	root := r.begin(0, "run", "")
	for id := uint64(1); id <= 3; id++ {
		r.do(id, "outer", "a", func() error {
			return r.do(id, "inner", "b", func() error { return nil })
		})
	}
	r.end(root)
	for i, s := range r.spans[1:] {
		if s.Name == "outer" && s.Parent != 0 {
			t.Errorf("span %d: outer parent %d, want 0", i+1, s.Parent)
		}
		if s.Name == "inner" && (s.Parent != i || r.spans[s.Parent].ID != s.ID) {
			t.Errorf("span %d: inner parent %d (id %d), want %d with the same id", i+1, s.Parent, s.ID, i)
		}
	}
	var sum int64
	for _, v := range selfTimes(r.spans) {
		sum += v
	}
	if wall := r.spans[root].End - r.spans[root].Start; sum != wall {
		t.Errorf("self times sum to %d, wall is %d", sum, wall)
	}

	var off *recorder // untraced: records nothing, still runs the call
	ran := false
	off.do(1, "x", "a", func() error { ran = true; return nil })
	if !ran {
		t.Error("nil recorder skipped the call")
	}
}
