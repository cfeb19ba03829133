package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sddict/internal/core"
	"sddict/internal/obs"
)

// ObsFlags bundles the observability flags shared by the commands:
// -progress, -trace-out, -metrics-out, -metrics-addr and -pprof. All
// default to off, and with all of them off the run carries a nil
// Observer — the library layers then skip every observation (and produce
// byte-identical results either way; observability is pure measurement,
// DESIGN.md §10).
type ObsFlags struct {
	Progress    time.Duration
	TraceOut    string
	MetricsOut  string
	MetricsAddr string
	Pprof       string
}

// RegisterObsFlags registers the shared observability flags on fs
// (typically flag.CommandLine) and returns their destination.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	fs.DurationVar(&f.Progress, "progress", 0,
		"print a one-line metrics digest to stderr at this interval (0 = off)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"append structured build events (JSONL) to this file; each event is written durably, so an interrupted trace is complete up to the signal")
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write the final metrics snapshot as JSON to this file")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve the live metrics in OpenMetrics text format at /metrics on this address (e.g. localhost:9100)")
	fs.StringVar(&f.Pprof, "pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060)")
	return f
}

// Enabled reports whether any observability flag was set.
func (f *ObsFlags) Enabled() bool {
	return f.Progress > 0 || f.TraceOut != "" || f.MetricsOut != "" ||
		f.MetricsAddr != "" || f.Pprof != ""
}

// ObsSession is the live observability state of one command run: the
// Observer handed to the pipeline (nil when observability is off) plus
// the resources to release when the run ends.
type ObsSession struct {
	// Observer is passed to the pipeline config; nil when no flag was set.
	Observer *obs.Observer
	// MetricsAddr is the address the -metrics-addr listener actually
	// bound ("" when the flag was off) — it differs from the flag when
	// the flag asked for port 0.
	MetricsAddr string

	flags       ObsFlags
	tracer      *obs.Tracer
	stopPprof   func() error
	stopMetrics func() error
	finished    bool
}

// Start opens the sinks the flags ask for and assembles the Observer.
// Callers must defer Close; an error here is a runtime failure (bad trace
// path, occupied pprof address), not a usage error.
func (f *ObsFlags) Start() (*ObsSession, error) {
	s := &ObsSession{flags: *f}
	if !f.Enabled() {
		return s, nil
	}
	m := obs.NewMetrics()
	var tr *obs.Tracer
	if f.TraceOut != "" {
		var err error
		tr, err = obs.NewFileTracer(f.TraceOut, time.Now)
		if err != nil {
			return nil, err
		}
		s.tracer = tr
	}
	var pg *obs.Progress
	if f.Progress > 0 {
		pg = obs.NewProgress(os.Stderr, f.Progress, time.Now, m)
	}
	if f.MetricsAddr != "" {
		bound, stop, err := obs.StartMetricsServerAddr(f.MetricsAddr, m)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.MetricsAddr = bound
		s.stopMetrics = stop
	}
	if f.Pprof != "" {
		stop, err := obs.StartPprof(f.Pprof)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.stopPprof = stop
	}
	s.Observer = &obs.Observer{Metrics: m, Trace: tr, Progress: pg}
	if tr != nil {
		// Build spans always emit; their observer carries no metrics, so
		// they leave the serve_spans counter alone.
		s.Observer.Spans = obs.NewSpans(&obs.Observer{Trace: tr}, time.Now, obs.SpanOptions{Sample: 1})
	}
	return s, nil
}

// Finish writes the end-of-run artifacts: the metrics snapshot JSON when
// -metrics-out was given, and the human-readable metrics section onto w
// (the command's report stream). A no-op when observability is off, so
// commands call it unconditionally after their report — including on the
// interrupted path, where the snapshot covers the work completed so far.
// Idempotent: Close runs it with a nil writer, so a run that errors out
// before reaching its report still leaves the final progress line and
// the -metrics-out snapshot behind for the post-mortem.
func (s *ObsSession) Finish(w io.Writer) error {
	if s == nil || s.Observer == nil || s.finished {
		return nil
	}
	s.finished = true
	// Emit the final progress line first: with a long -progress interval
	// the periodic ticker may never have fired, and a run must not end
	// silently after promising progress output.
	s.Observer.Progress.Final()
	snap := s.Observer.Metrics.Snapshot()
	if s.flags.MetricsOut != "" {
		err := core.AtomicWriteFile(s.flags.MetricsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(snap)
		})
		if err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if w != nil {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		return snap.WriteText(w)
	}
	return nil
}

// Close releases the session's sinks (trace file, pprof listener). Safe
// on nil and after partial Start failures. Trace events are individually
// durable, so a missed Close on a hard kill loses nothing. On paths that
// never reached Finish (a command erroring out mid-run) Close runs it
// first, writer-less, so the end-of-run artifacts survive the failure.
func (s *ObsSession) Close() error {
	if s == nil {
		return nil
	}
	first := s.Finish(nil)
	if s.tracer != nil {
		if err := s.tracer.Close(); err != nil && first == nil {
			first = err
		}
		s.tracer = nil
	}
	if s.stopMetrics != nil {
		if err := s.stopMetrics(); err != nil && first == nil {
			first = err
		}
		s.stopMetrics = nil
	}
	if s.stopPprof != nil {
		if err := s.stopPprof(); err != nil && first == nil {
			first = err
		}
		s.stopPprof = nil
	}
	return first
}
