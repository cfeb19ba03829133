package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Every span of one circuit build or one
// request carries the same ID; Parent indexes the enclosing span in the
// recorder's list (-1 for a top-level span).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the same code path runs traced and untraced.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indexes of the spans begun and not yet ended
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(id uint64, name, layer string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Name: name, Layer: layer, Parent: parent,
		Start: int64(time.Since(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// do runs f inside a span.
func (r *recorder) do(id uint64, name, layer string, f func() error) error {
	i := r.begin(id, name, layer)
	defer r.end(i)
	return f()
}

// selfTimes returns each layer's self time in nanoseconds: a span's
// duration minus the part of its interval that its child spans cover,
// summed per layer. Spans with an empty layer (the run and request
// roots) add their self time under "", the unattributed remainder.
// Over one top-level span the values sum to that span's duration.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Layer] += (s.End - s.Start) - covered(s, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for n, v := range iv {
		if n == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes the recorded spans to path, one JSON object a line.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
