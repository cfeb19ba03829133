package analyze

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"sddict/internal/obs"
)

// Thresholds configures when a metric delta counts as a regression.
// Zero values select the defaults; a negative value disables that class
// of check entirely.
type Thresholds struct {
	// CounterPct is the allowed drift of a counter from run A to run B,
	// in percent, in either direction. Counters measure work done
	// (candidate scans, sim batches, restarts) and are deterministic
	// functions of the input: growth beyond noise means the new run works
	// harder for the same result, and an equally large drop means the run
	// broke early or the baseline is stale — both deserve a look (refresh
	// the baseline to accept an improvement). Default 10.
	CounterPct float64
	// PercentilePct is the allowed drift of a histogram percentile
	// (p50/p90/p99), in percent, in either direction. Percentiles
	// estimated from power-of-two buckets move in coarse steps, so this
	// default is looser: 100 (one bucket doubling).
	PercentilePct float64
}

// DefaultThresholds are the sddstat compare defaults.
var DefaultThresholds = Thresholds{CounterPct: 10, PercentilePct: 100}

func (t Thresholds) counterPct() float64 {
	if t.CounterPct == 0 {
		return DefaultThresholds.CounterPct
	}
	return t.CounterPct
}

func (t Thresholds) percentilePct() float64 {
	if t.PercentilePct == 0 {
		return DefaultThresholds.PercentilePct
	}
	return t.PercentilePct
}

// Delta is one metric compared across two runs. GrowthPct is
// (B-A)/A*100; +Inf when A is zero and B is not.
type Delta struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"` // "counter", "gauge", "percentile"
	A          float64 `json:"a"`
	B          float64 `json:"b"`
	GrowthPct  float64 `json:"growth_pct"`
	Regression bool    `json:"regression"`
}

// Comparison is the diff of two metrics snapshots: every metric present
// in either run, sorted by kind then name, with regressions flagged
// against the thresholds.
type Comparison struct {
	Deltas      []Delta `json:"deltas"`
	Regressions int     `json:"regressions"`
}

// Regressed reports whether any delta exceeded its threshold.
func (c *Comparison) Regressed() bool { return c.Regressions > 0 }

// Compare diffs run B against baseline run A. Counters and histogram
// percentiles are gated by the thresholds (drift in either direction);
// gauges are instantaneous state and reported for information only.
func Compare(a, b obs.Snapshot, th Thresholds) *Comparison {
	c := &Comparison{}

	add := func(name, kind string, av, bv float64, limitPct float64) {
		if av == 0 && bv == 0 {
			return
		}
		d := Delta{Name: name, Kind: kind, A: av, B: bv, GrowthPct: growthPct(av, bv)}
		if limitPct >= 0 && math.Abs(d.GrowthPct) > limitPct {
			d.Regression = true
			c.Regressions++
		}
		c.Deltas = append(c.Deltas, d)
	}

	for _, name := range sortedKeys(a.Counters, b.Counters) {
		add(name, "counter", float64(a.Counters[name]), float64(b.Counters[name]), th.counterPct())
	}
	for _, name := range sortedKeys(a.Gauges, b.Gauges) {
		add(name, "gauge", float64(a.Gauges[name]), float64(b.Gauges[name]), -1)
	}
	for _, name := range sortedKeys(a.Histograms, b.Histograms) {
		pa, pb := Summarize(a.Histograms[name]), Summarize(b.Histograms[name])
		for _, q := range []struct {
			suffix string
			a, b   float64
		}{
			{"p50", pa.P50, pb.P50},
			{"p90", pa.P90, pb.P90},
			{"p99", pa.P99, pb.P99},
		} {
			add(name+"/"+q.suffix, "percentile", q.a, q.b, th.percentilePct())
		}
	}
	return c
}

// WriteText renders the comparison as a fixed-order table: regressions
// first within their section order, so the reason for a nonzero exit is
// at the top of each section.
func (c *Comparison) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("metric comparison (B vs baseline A): %d metrics, %d regressions\n",
		len(c.Deltas), c.Regressions)
	for _, d := range c.Deltas {
		mark := " "
		if d.Regression {
			mark = "!"
		}
		growth := "new"
		if !math.IsInf(d.GrowthPct, 1) {
			growth = formatSigned(d.GrowthPct)
		}
		ew.printf("  %s %-10s %-24s %14.1f -> %-14.1f %s\n", mark, d.Kind, d.Name, d.A, d.B, growth)
	}
	return ew.err
}

func growthPct(a, b float64) float64 {
	switch {
	case a == 0 && b == 0:
		return 0
	case a == 0:
		return math.Inf(1)
	default:
		return roundPct((b - a) / a * 100)
	}
}

// formatSigned renders a growth percentage with an explicit sign, one
// decimal, trailing ".0" stripped ("+12%" reads better than "+12.0%").
func formatSigned(pct float64) string {
	s := fmt.Sprintf("%+.1f", pct)
	s = strings.TrimSuffix(s, ".0")
	return s + "%"
}

// sortedKeys returns the union of the maps' keys, sorted.
func sortedKeys[V any](maps ...map[string]V) []string {
	set := map[string]bool{}
	for _, m := range maps {
		for k := range m {
			set[k] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
