package core

import (
	"math/rand"
	"testing"

	"sddict/internal/logic"
)

// TestRankBoundedMatchesFullSort: the heap-based bounded selection must
// return exactly the prefix of the full sort for every topK, including
// the tie-break (distance ascending, fault ascending), and the full sort
// must rank every row once at its brute-force Hamming distance. Narrow
// pass/fail rows over few classes make ties at every distance common.
func TestRankBoundedMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		m := randomMatrix(r, 150+r.Intn(100), 6+r.Intn(10), 3)
		c, err := NewPassFail(m).Compile()
		if err != nil {
			t.Fatal(err)
		}
		n := len(c.Rows)
		// Half the signatures are a row with a few bits flipped, so the
		// nearest tier is close; the rest are uniformly random.
		sig := logic.NewBitVec(c.SignatureBits())
		if trial%2 == 0 {
			sig = c.Rows[r.Intn(n)].Clone()
			for f := r.Intn(4); f > 0; f-- {
				b := r.Intn(c.SignatureBits())
				sig.Set(b, sig.Get(b)^1)
			}
		} else {
			for b := 0; b < c.SignatureBits(); b++ {
				sig.Set(b, uint64(r.Intn(2)))
			}
		}
		full := c.Rank(sig, 0) // reference: full sort
		if len(full) != n {
			t.Fatalf("full rank returned %d of %d faults", len(full), n)
		}
		seen := make([]bool, n)
		for i, cand := range full {
			if seen[cand.Fault] {
				t.Fatalf("fault %d ranked twice", cand.Fault)
			}
			seen[cand.Fault] = true
			if want := c.Rows[cand.Fault].Hamming(sig); cand.Distance != want {
				t.Fatalf("fault %d at distance %d, brute force %d", cand.Fault, cand.Distance, want)
			}
			if i > 0 && !rankedLess(full[i-1], cand) {
				t.Fatalf("reference ranking out of order at %d", i)
			}
		}
		for _, topK := range []int{1, 2, 3, 7, 10, 64, n - 1, n, n + 5} {
			got := c.Rank(sig, topK)
			if wantLen := min(topK, n); len(got) != wantLen {
				t.Fatalf("topK=%d returned %d candidates, want %d", topK, len(got), wantLen)
			}
			for i, cand := range got {
				if cand != full[i] {
					t.Fatalf("topK=%d: candidate %d = %+v, full sort has %+v", topK, i, cand, full[i])
				}
			}
		}
	}
}
