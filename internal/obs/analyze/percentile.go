package analyze

import (
	"math"

	"sddict/internal/obs"
)

// PercentileSummary is the standard three-quantile digest of one
// histogram.
type PercentileSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summarize computes the p50/p90/p99 digest of a histogram snapshot.
func Summarize(hs obs.HistSnapshot) PercentileSummary {
	return PercentileSummary{
		Count: hs.Count,
		Sum:   hs.Sum,
		P50:   Percentile(hs, 0.50),
		P90:   Percentile(hs, 0.90),
		P99:   Percentile(hs, 0.99),
	}
}

// Percentile estimates the q-quantile (q in [0,1]) of a power-of-two
// bucketed histogram by linear interpolation inside the bucket holding
// the target rank — the standard Prometheus histogram_quantile
// estimate, adapted to the registry's [lo,hi] integer buckets. The
// estimate is exact for bucket boundaries and at most one bucket wide
// off elsewhere; with doubling buckets that bounds the relative error
// at 2x, which is enough to rank regressions.
//
// Returns 0 for an empty histogram and the top bucket's upper edge for
// q >= 1.
func Percentile(hs obs.HistSnapshot, q float64) float64 {
	if hs.Count == 0 || len(hs.Buckets) == 0 {
		return 0
	}
	// NaN fails every ordered comparison, so a plain q<0 / q>1 clamp
	// would let it through to rank=NaN, skip every bucket, and
	// over-report the top edge. !(q >= 0) is the NaN-safe form.
	if !(q >= 0) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(hs.Count)
	var cum float64
	for _, b := range hs.Buckets {
		n := float64(b.N)
		if cum+n >= rank {
			if b.Hi <= b.Lo { // the zero bucket (and any degenerate one)
				return float64(b.Lo)
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / n
			}
			return float64(b.Lo) + frac*float64(b.Hi-b.Lo)
		}
		cum += n
	}
	top := hs.Buckets[len(hs.Buckets)-1]
	return float64(top.Hi)
}

// roundPct rounds a percentage to one decimal for stable rendering.
func roundPct(v float64) float64 { return math.Round(v*10) / 10 }
