package core

import (
	"sort"

	"sddict/internal/logic"
)

// Ranked is one nearest-match diagnosis candidate over compiled
// signature rows: the fault's row index and its Hamming distance to the
// observed signature (0 = exact match).
type Ranked struct {
	Fault    int
	Distance int
}

// rankedLess is the ranking order: distance ascending, fault index
// ascending within equal distance. Fault indices are distinct, so it is
// a strict total order: a ranking is fully determined by the rows and
// the signature, and every caller of Rank gets byte-comparable answers.
func rankedLess(a, b Ranked) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Fault < b.Fault
}

// Rank returns the topK faults whose compiled signature rows are
// closest to sig by Hamming distance, distance ascending, fault index
// ascending within equal distance — the nearest-match fallback a
// deployed diagnosis uses when no row matches exactly (a defect outside
// the modeled universe). topK <= 0 (or >= the row count) ranks
// everything. A bounded topK runs in O(n log topK) via heap selection
// instead of a full sort — diagnosis wants a handful of candidates out
// of thousands of faults.
func (c *Compiled) Rank(sig logic.BitVec, topK int) []Ranked {
	if topK <= 0 || topK >= len(c.Rows) {
		out := make([]Ranked, len(c.Rows))
		for i, row := range c.Rows {
			out[i] = Ranked{Fault: i, Distance: row.Hamming(sig)}
		}
		sort.Slice(out, func(a, b int) bool { return rankedLess(out[a], out[b]) })
		return out
	}
	// Max-heap of the best topK seen so far, rooted at the worst kept
	// candidate: a new candidate either beats the root and replaces it,
	// or is discarded.
	h := make([]Ranked, 0, topK)
	for i, row := range c.Rows {
		r := Ranked{Fault: i, Distance: row.Hamming(sig)}
		if len(h) < topK {
			h = append(h, r)
			rankedSiftUp(h, len(h)-1)
		} else if rankedLess(r, h[0]) {
			h[0] = r
			rankedSiftDown(h, 0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return rankedLess(h[a], h[b]) })
	return h
}

// rankedSiftUp restores the max-heap property after appending at i.
func rankedSiftUp(h []Ranked, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !rankedLess(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// rankedSiftDown restores the max-heap property after replacing the root.
func rankedSiftDown(h []Ranked, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && rankedLess(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && rankedLess(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
