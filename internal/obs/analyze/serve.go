package analyze

// Serve-journal analytics (DESIGN.md §16): reconstruct per-request
// behaviour from a server's span journal, aggregate stage-level
// latency percentiles with exemplar request IDs, and join the journal
// against an sddload client journal by request ID — the cross-process
// view that turns "the p99 spiked" into "these requests spent their
// time in this stage".

import (
	"io"
	"sort"
)

// JoinedRequest couples the client's and the server's view of one
// request ID.
type JoinedRequest struct {
	RequestID string `json:"request_id"`
	ClientUs  int64  `json:"client_us"`
	ServerUs  int64  `json:"server_us"`
	// OverheadUs is the client-observed latency not accounted for by
	// the server span: transport, queueing, scheduling. Clamped at 0 —
	// clocks on the two sides are independent.
	OverheadUs int64 `json:"overhead_us"`
	Status     int   `json:"status"`
	Attempts   int   `json:"attempts"`
}

// Join is the client↔server latency join over request IDs.
type Join struct {
	// Joined counts request IDs present in both journals; ClientOnly
	// counts client requests with no server span (unsampled, or the
	// server died); ServerOnly counts spans no client request claims
	// (other traffic, health checks).
	Joined     int `json:"joined"`
	ClientOnly int `json:"client_only"`
	ServerOnly int `json:"server_only"`
	// Overhead summarizes OverheadUs across joined requests.
	Overhead PercentileSummary `json:"overhead_us"`
	// Slowest is the joined view of the worst client-observed
	// latencies, slowest first.
	Slowest []JoinedRequest `json:"slowest,omitempty"`
}

// ServeRun is the reconstructed serve-side story of one span journal.
type ServeRun struct {
	Spans     int  `json:"spans"`
	Truncated bool `json:"truncated"`
	// Requests summarizes span durations (exact percentiles over the
	// journaled values, not histogram buckets).
	Requests PercentileSummary `json:"request_us"`
	// Exemplars are the slowest request spans, slowest first.
	Exemplars []Exemplar   `json:"exemplars,omitempty"`
	Stages    []StageStats `json:"stages,omitempty"`
	Statuses  map[int]int  `json:"statuses"`
	SlowCount int          `json:"slow_count"`
	Errors    int          `json:"errors"`
	// NestingViolations counts stage intervals escaping their span's
	// interval — always 0 for journals written by obs.Spans; nonzero
	// means a corrupt or foreign journal.
	NestingViolations int   `json:"nesting_violations"`
	Join              *Join `json:"join,omitempty"`

	spans []Span
}

// ReadServeRun reconstructs a ServeRun from a span journal. Like
// ReadRun, a trace torn mid-write analyzes its parsed prefix with
// Truncated set; any other read error is fatal.
func ReadServeRun(r io.Reader) (*ServeRun, error) {
	events, truncated, err := readEvents(r)
	if err != nil {
		return nil, err
	}
	run := &ServeRun{Truncated: truncated, Statuses: map[int]int{}}
	for _, ev := range events {
		if ev.Type == "span" {
			run.spans = append(run.spans, spanFromFields(ev.Fields))
		}
	}
	run.aggregate()
	return run, nil
}

// aggregate computes the per-run rollups from the parsed spans.
func (r *ServeRun) aggregate() {
	r.Spans = len(r.spans)
	var durs []int64
	var durIDs []Exemplar
	for _, sp := range r.spans {
		durs = append(durs, sp.DurUs)
		durIDs = append(durIDs, Exemplar{RequestID: sp.RequestID, Us: sp.DurUs})
		r.Statuses[sp.Status]++
		if sp.Slow {
			r.SlowCount++
		}
		if sp.Error != "" {
			r.Errors++
		}
	}
	r.Requests = percentilesOf(durs)
	r.Exemplars = topExemplars(durIDs, maxExemplars)
	r.Stages, r.NestingViolations = stageBreakdown(r.spans)
}

// JoinClient reads an sddload client journal and joins it against the
// run's spans by request ID. When several spans share a request ID
// (retries of a shed request reuse theirs), the one matching the
// client's final status — falling back to the last — represents the
// server side.
func (r *ServeRun) JoinClient(cr io.Reader) error {
	events, _, err := readEvents(cr)
	if err != nil {
		return err
	}
	byID := map[string][]Span{}
	for _, sp := range r.spans {
		byID[sp.RequestID] = append(byID[sp.RequestID], sp)
	}
	join := &Join{}
	claimed := map[string]bool{}
	var overheads []int64
	for _, ev := range events {
		if ev.Type != "client_request" {
			continue
		}
		// us is the final attempt's latency, the one a span can explain.
		id, us, status := fieldStr(ev.Fields, "request_id"), fieldInt64(ev.Fields, "us"), fieldInt(ev.Fields, "status")
		spans, ok := byID[id]
		if !ok {
			join.ClientOnly++
			continue
		}
		claimed[id] = true
		sp := spans[len(spans)-1]
		for _, cand := range spans {
			if cand.Status == status {
				sp = cand
			}
		}
		overhead := max(us-sp.DurUs, 0)
		join.Joined++
		overheads = append(overheads, overhead)
		join.Slowest = append(join.Slowest, JoinedRequest{
			RequestID:  id,
			ClientUs:   us,
			ServerUs:   sp.DurUs,
			OverheadUs: overhead,
			Status:     status,
			Attempts:   fieldInt(ev.Fields, "attempts"),
		})
	}
	for id := range byID {
		if !claimed[id] {
			join.ServerOnly++
		}
	}
	join.Overhead = percentilesOf(overheads)
	sort.Slice(join.Slowest, func(a, b int) bool {
		if join.Slowest[a].ClientUs != join.Slowest[b].ClientUs {
			return join.Slowest[a].ClientUs > join.Slowest[b].ClientUs
		}
		return join.Slowest[a].RequestID < join.Slowest[b].RequestID
	})
	if len(join.Slowest) > maxExemplars {
		join.Slowest = join.Slowest[:maxExemplars]
	}
	r.Join = join
	return nil
}

// percentilesOf summarizes raw values exactly (sort + linear
// interpolation), unlike Summarize which estimates from power-of-two
// histogram buckets — the journal holds every value, so there is no
// reason to approximate.
func percentilesOf(vals []int64) PercentileSummary {
	s := PercentileSummary{Count: int64(len(vals))}
	if len(vals) == 0 {
		return s
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	for _, v := range sorted {
		s.Sum += v
	}
	at := func(q float64) float64 {
		pos := q * float64(len(sorted)-1)
		lo := int(pos)
		if lo >= len(sorted)-1 {
			return float64(sorted[len(sorted)-1])
		}
		frac := pos - float64(lo)
		return float64(sorted[lo]) + frac*(float64(sorted[lo+1])-float64(sorted[lo]))
	}
	s.P50, s.P90, s.P99 = at(0.50), at(0.90), at(0.99)
	return s
}

// topExemplars returns the n largest entries, largest first, request ID
// breaking ties for a stable report.
func topExemplars(ex []Exemplar, n int) []Exemplar {
	sorted := append([]Exemplar(nil), ex...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Us != sorted[b].Us {
			return sorted[a].Us > sorted[b].Us
		}
		return sorted[a].RequestID < sorted[b].RequestID
	})
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

// WriteText renders the serve report.
func (r *ServeRun) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	status := "clean"
	if r.Truncated {
		status = "TRUNCATED (analyzing prefix)"
	}
	ew.printf("serve span journal: %d spans, %s\n", r.Spans, status)
	if r.Spans == 0 {
		ew.printf("  no spans journaled (is -trace-sample 0 with no slow/failed requests?)\n")
		return ew.err
	}
	ew.printf("  requests: count=%d p50=%.0fus p90=%.0fus p99=%.0fus\n",
		r.Requests.Count, r.Requests.P50, r.Requests.P90, r.Requests.P99)
	ew.printf("  statuses:")
	var codes []int
	for code := range r.Statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		ew.printf(" %d=%d", code, r.Statuses[code])
	}
	ew.printf("  slow=%d errors=%d nesting_violations=%d\n", r.SlowCount, r.Errors, r.NestingViolations)

	writeStages(ew, r.Stages)
	if len(r.Exemplars) > 0 {
		ew.printf("slowest requests:\n")
		for _, ex := range r.Exemplars {
			ew.printf("  %s %dus\n", ex.RequestID, ex.Us)
		}
	}

	if j := r.Join; j != nil {
		ew.printf("client join: joined=%d client_only=%d server_only=%d\n", j.Joined, j.ClientOnly, j.ServerOnly)
		if j.Joined > 0 {
			ew.printf("  overhead_us (client-observed minus server span): p50=%.0f p90=%.0f p99=%.0f\n",
				j.Overhead.P50, j.Overhead.P90, j.Overhead.P99)
			for _, jr := range j.Slowest {
				ew.printf("  slowest %s client=%dus server=%dus overhead=%dus status=%d attempts=%d\n",
					jr.RequestID, jr.ClientUs, jr.ServerUs, jr.OverheadUs, jr.Status, jr.Attempts)
			}
		}
	}
	return ew.err
}
