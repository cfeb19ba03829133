package analyze

import (
	"fmt"
	"io"
	"time"
)

// errWriter folds the per-line error checks of a long report into one
// sticky error, so the rendering reads as prose.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

func ms(v int64) time.Duration { return time.Duration(v) * time.Millisecond }

func us(v float64) time.Duration { return time.Duration(v) * time.Microsecond }

// WriteText renders the run as the human-readable sddstat report. The
// output is deterministic for a given run (fixed section and key order).
func (r *Run) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}

	ew.printf("trace: %d events over %s", r.Events, ms(r.DurationMs))
	if r.Builds > 1 {
		ew.printf(" (%d builds appended; build figures describe the last)", r.Builds)
	}
	ew.printf("\n")
	if r.Truncated {
		ew.printf("TRUNCATED: final event torn mid-write (crash or SIGKILL); figures cover the parsed prefix\n")
	}

	b := r.Build
	if r.Builds > 0 {
		ew.printf("build: %d faults x %d tests, seed %d, workers %d, schema v%d\n",
			b.Faults, b.Tests, b.Seed, b.Workers, b.Schema)
		switch {
		case b.Completed && b.Interrupted:
			ew.printf("  interrupted: best-so-far indist %d after %d restarts (full-dictionary floor %d)\n",
				b.FinalIndist, b.Restarts, b.IndistFull)
		case b.Completed:
			ew.printf("  final indist %d after %d restarts (full-dictionary floor %d)\n",
				b.FinalIndist, b.Restarts, b.IndistFull)
		default:
			ew.printf("  no build_end event: the run was still in flight when the trace ended\n")
		}
	}

	ew.printf("spans: %d, nesting violations %d\n", r.Spans, r.NestingViolations)
	writeStages(ew, r.Stages)

	if len(r.Convergence) > 0 {
		ew.printf("restart convergence (improvements only):\n")
		for _, p := range r.Convergence {
			if !p.Improved {
				continue
			}
			if p.Row != "" {
				ew.printf("  %s restart %4d: best %d\n", p.Row, p.Restart, p.Best)
			} else {
				ew.printf("  restart %4d: best %d\n", p.Restart, p.Best)
			}
		}
	}

	sp := r.Speculation
	if sp.RestartsStarted > 0 {
		ew.printf("speculation: %d restarts started, %d folded, %d discarded (%.1f%% waste)\n",
			sp.RestartsStarted, sp.RestartsFolded, sp.RestartsDiscarded, roundPct(sp.WasteRatio*100))
	}

	cs := r.Checkpoints
	if cs.Saves > 0 {
		ew.printf("checkpoints: %d saves (%d persisted, %d loads)", cs.Saves, cs.Persisted, cs.Loads)
		if cs.Saves > 1 {
			ew.printf(", mean interval %s, ~%.1f restarts apart",
				ms(int64(cs.MeanIntervalMs)), cs.MeanRestartsBetween)
		}
		if cs.EndsOnSave {
			ew.printf("; trace ends on checkpoint_save")
		}
		ew.printf("\n")
	}

	if len(r.Rows) > 0 {
		ew.printf("sweep rows (%d delivered", len(r.Rows))
		if sp.RowsStarted > len(r.Rows) {
			ew.printf(" of %d started", sp.RowsStarted)
		}
		ew.printf("):\n")
		for _, rs := range r.Rows {
			status := rs.Status
			if status == "" {
				if rs.OK {
					status = "ok"
				} else {
					status = "failed"
				}
			}
			ew.printf("  [%2d] %-16s %-12s %10s", rs.Index, rs.Row, status, ms(rs.ElapsedMs))
			if rs.Error != "" {
				ew.printf("  %s", rs.Error)
			}
			ew.printf("\n")
		}
	}

	if len(r.Percentiles) > 0 {
		ew.printf("histogram percentiles:\n")
		for _, name := range sortedKeys(r.Percentiles) {
			p := r.Percentiles[name]
			ew.printf("  %-16s n=%-6d p50=%-8.1f p90=%-8.1f p99=%.1f\n",
				name, p.Count, p.P50, p.P90, p.P99)
		}
	}
	if r.Metrics != nil {
		if ew.err == nil {
			ew.err = r.Metrics.WriteText(w)
		}
	}
	return ew.err
}
