package analyze

// One span model for builds and requests (DESIGN.md §10, §11, §16): the
// build report and `sddstat serve` read `span` events with one parser,
// break span time down by stage with one aggregator, and print it with
// one renderer.

import (
	"sort"

	"sddict/internal/obs"
)

// Span is one span read back from a trace: a served request, or the
// root span of one build (an sdd run or a table6 sweep row).
type Span struct {
	RequestID   string      `json:"request_id"`
	Parent      string      `json:"parent,omitempty"`
	Method      string      `json:"method"`
	Path        string      `json:"path"`
	Status      int         `json:"status"`
	DurUs       int64       `json:"dur_us"`
	Sampled     bool        `json:"sampled"`
	Slow        bool        `json:"slow,omitempty"`
	Interrupted bool        `json:"interrupted,omitempty"`
	Error       string      `json:"error,omitempty"`
	Stages      []obs.Stage `json:"stages,omitempty"`
}

// Exemplar ties a latency tail to a concrete span: the trace can then be
// grepped for the request ID directly.
type Exemplar struct {
	RequestID string `json:"request_id"`
	Us        int64  `json:"us"`
}

// StageStats aggregates one stage name across every span. A batch
// request contributes one sample per stage instance (one parse / recall
// / scan / record cycle per observation), so Count can exceed the span
// count.
type StageStats struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalUs int64  `json:"total_us"`
	// Share is TotalUs over the summed duration of every span.
	Share float64           `json:"share"`
	Pct   PercentileSummary `json:"percentiles"`
	// Exemplars are the largest single stage instances, slowest first.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// maxExemplars bounds every slowest-list in the report.
const maxExemplars = 5

func fieldStr(fields map[string]any, key string) string {
	s, _ := fields[key].(string)
	return s
}

func fieldBool(fields map[string]any, key string) bool {
	b, _ := fields[key].(bool)
	return b
}

// spanFromFields decodes the fields of one `span` event. Fields of the
// wrong type read as their zero value.
func spanFromFields(fields map[string]any) Span {
	sp := Span{
		RequestID:   fieldStr(fields, "request_id"),
		Parent:      fieldStr(fields, "parent"),
		Method:      fieldStr(fields, "method"),
		Path:        fieldStr(fields, "path"),
		Status:      fieldInt(fields, "status"),
		DurUs:       fieldInt64(fields, "dur_us"),
		Sampled:     fieldBool(fields, "sampled"),
		Slow:        fieldBool(fields, "slow"),
		Interrupted: fieldBool(fields, "interrupted"),
		Error:       fieldStr(fields, "error"),
	}
	// Stages survive either as []any of maps (JSON round trip) or as
	// the native []obs.Stage (freshly-emitted events in tests).
	switch v := fields["stages"].(type) {
	case []any:
		for _, st := range v {
			if m, ok := st.(map[string]any); ok {
				sp.Stages = append(sp.Stages, obs.Stage{
					Name:    fieldStr(m, "name"),
					StartUs: fieldInt64(m, "start_us"),
					DurUs:   fieldInt64(m, "dur_us"),
				})
			}
		}
	case []obs.Stage:
		sp.Stages = v
	}
	return sp
}

// stageBreakdown aggregates the stages of spans by name, heaviest first,
// and counts the stage intervals that escape their span — always 0 for
// traces written by obs.Spans; nonzero means a corrupt or foreign trace.
func stageBreakdown(spans []Span) (stages []StageStats, violations int) {
	type agg struct {
		vals      []int64
		totalUs   int64
		exemplars []Exemplar
	}
	byName := map[string]*agg{}
	var spanUs int64
	for _, sp := range spans {
		spanUs += sp.DurUs
		for _, st := range sp.Stages {
			// Written so that no sum can overflow on a hostile trace.
			if st.StartUs < 0 || st.DurUs < 0 || st.StartUs > sp.DurUs || st.DurUs > sp.DurUs-st.StartUs {
				violations++
			}
			a := byName[st.Name]
			if a == nil {
				a = &agg{}
				byName[st.Name] = a
			}
			a.vals = append(a.vals, st.DurUs)
			a.totalUs += st.DurUs
			a.exemplars = append(a.exemplars, Exemplar{RequestID: sp.RequestID, Us: st.DurUs})
		}
	}
	for name, a := range byName {
		ss := StageStats{
			Name:      name,
			Count:     int64(len(a.vals)),
			TotalUs:   a.totalUs,
			Pct:       percentilesOf(a.vals),
			Exemplars: topExemplars(a.exemplars, maxExemplars),
		}
		if spanUs > 0 {
			ss.Share = float64(a.totalUs) / float64(spanUs)
		}
		stages = append(stages, ss)
	}
	// Heaviest stage first; name breaks ties so the report is stable.
	sort.Slice(stages, func(a, b int) bool {
		if stages[a].TotalUs != stages[b].TotalUs {
			return stages[a].TotalUs > stages[b].TotalUs
		}
		return stages[a].Name < stages[b].Name
	})
	return stages, violations
}

// writeStages renders the stage breakdown section both reports print,
// closing with the share of span time no stage covers.
func writeStages(ew *errWriter, stages []StageStats) {
	ew.printf("stage breakdown:\n")
	if len(stages) == 0 {
		ew.printf("  no stages recorded (no span in the trace, or the run ended before its span)\n")
		return
	}
	staged := 0.0
	for _, st := range stages {
		staged += st.Share
		ew.printf("  %-12s count=%-4d total=%-12s %5.1f%%", st.Name, st.Count, us(float64(st.TotalUs)), st.Share*100)
		if st.Count == 1 {
			// One instance: its percentiles and exemplar are its total.
			ew.printf("\n")
			continue
		}
		ew.printf("  p50=%s p90=%s p99=%s\n", us(st.Pct.P50), us(st.Pct.P90), us(st.Pct.P99))
		for _, ex := range st.Exemplars {
			ew.printf("               slowest %s %s\n", ex.RequestID, us(float64(ex.Us)))
		}
	}
	ew.printf("  %-12s %5.1f%% of span time\n", "(unstaged)", (1-staged)*100)
}
