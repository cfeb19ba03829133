// Command sddstat is the post-run analyzer for the observability
// artifacts the pipeline commands write: it reads a -trace-out JSONL
// build-event trace (plus, optionally, the matching -metrics-out
// snapshot) and reports the build — the stage breakdown of its root
// spans, the restart-convergence curve, the speculation-waste ratio of
// the parallel search, checkpoint cadence, and histogram percentiles.
// Its compare mode diffs the metrics snapshots of two runs and exits
// nonzero when a counter or percentile drifted past its threshold in
// either direction, which is what CI gates on.
//
// Its serve mode reads an sddserve span journal instead — per-request
// spans with stage breakdowns — and, given the matching sddload client
// journal, joins the two by request ID: stage-level p50/p90/p99 with
// exemplar request IDs, plus the client-observed overhead each request
// paid on top of its server span.
//
// Usage:
//
//	sddstat [-json] trace.jsonl [metrics.json]
//	sddstat compare [-json] [-counters pct] [-percentiles pct] baseline.json current.json
//	sddstat serve [-json] server-trace.jsonl [client-journal.jsonl]
//
// Example:
//
//	$ sdd -circuit s298 -trace-out t.jsonl -metrics-out m.json
//	$ sddstat t.jsonl m.json
//
//	$ sddserve -dict s298.sdda -trace-out spans.jsonl &
//	$ sddload -addr 127.0.0.1:8090 -dict s298.sdda -journal client.jsonl
//	$ sddstat serve spans.jsonl client.jsonl
//
// A trace torn mid-write (the writer crashed or was SIGKILLed) is
// reported as TRUNCATED and analyzed from its parsed prefix rather
// than rejected: post-mortems on dead runs are this tool's main use.
// Exit status is 0 on success, 1 on a runtime failure or a compare
// regression, 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"sddict/internal/cli"
	"sddict/internal/obs"
	"sddict/internal/obs/analyze"
)

func main() {
	cli.Main("sddstat", run)
}

func run(ctx context.Context) error {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], os.Stdout)
		case "serve":
			return runServe(args[1:], os.Stdout)
		}
	}
	return runReport(args, os.Stdout)
}

// runServe analyzes a serve span journal (DESIGN.md §16): per-request
// spans, the stage-level latency breakdown with exemplar request IDs,
// and — given an sddload client journal — the client↔server latency
// join by request ID.
func runServe(args []string, stdout io.Writer) error {
	usage := "sddstat serve [-json] server-trace.jsonl [client-journal.jsonl]"
	return runAnalysis("sddstat serve", usage, args, stdout, func(f io.Reader, clientPath string) (textReport, error) {
		r, err := analyze.ReadServeRun(f)
		if err != nil || clientPath == "" {
			return r, err
		}
		cf, err := os.Open(clientPath)
		if err != nil {
			return nil, err
		}
		defer cf.Close()
		if err := r.JoinClient(cf); err != nil {
			return nil, fmt.Errorf("joining client journal %s: %w", clientPath, err)
		}
		return r, nil
	})
}

// runReport is the default mode: analyze one run's build trace and,
// optionally, its metrics snapshot. A trace written under another
// schema carries events whose meaning differs; ReadRun refuses it
// rather than misreport.
func runReport(args []string, stdout io.Writer) error {
	usage := "sddstat [-json] trace.jsonl [metrics.json]"
	return runAnalysis("sddstat", usage, args, stdout, func(f io.Reader, metricsPath string) (textReport, error) {
		r, err := analyze.ReadRun(f)
		if err != nil || metricsPath == "" {
			return r, err
		}
		snap, err := readSnapshot(metricsPath)
		if err != nil {
			return nil, err
		}
		r.AttachMetrics(snap)
		return r, nil
	})
}

// textReport is an analysis both output modes can render.
type textReport interface{ WriteText(io.Writer) error }

// runAnalysis is the shape the report and serve modes share: flags,
// one trace plus an optional second file handed to read, then the
// result as text or, with -json, as JSON.
func runAnalysis(name, usage string, args []string, stdout io.Writer,
	read func(trace io.Reader, second string) (textReport, error)) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	asJSON := fs.Bool("json", false, "emit the analysis as JSON instead of the text report")
	if err := fs.Parse(args); err != nil {
		return cli.Usagef("%v", err)
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return cli.Usagef("usage: %s", usage)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := read(f, fs.Arg(1))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	if *asJSON {
		return writeJSON(stdout, r)
	}
	return r.WriteText(stdout)
}

// runCompare diffs two -metrics-out snapshots and fails on regression.
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sddstat compare", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	asJSON := fs.Bool("json", false, "emit the comparison as JSON instead of the text table")
	counterPct := fs.Float64("counters", analyze.DefaultThresholds.CounterPct,
		"allowed counter drift in percent, either direction, before the compare fails (negative = never)")
	pctlPct := fs.Float64("percentiles", analyze.DefaultThresholds.PercentilePct,
		"allowed histogram-percentile drift in percent, either direction, before the compare fails (negative = never)")
	if err := fs.Parse(args); err != nil {
		return cli.Usagef("%v", err)
	}
	if fs.NArg() != 2 {
		return cli.Usagef("usage: sddstat compare [-json] [-counters pct] [-percentiles pct] baseline.json current.json")
	}

	a, err := readSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readSnapshot(fs.Arg(1))
	if err != nil {
		return err
	}

	c := analyze.Compare(a, b, analyze.Thresholds{CounterPct: *counterPct, PercentilePct: *pctlPct})
	if *asJSON {
		if err := writeJSON(stdout, c); err != nil {
			return err
		}
	} else if err := c.WriteText(stdout); err != nil {
		return err
	}
	if c.Regressed() {
		return fmt.Errorf("%d metric regression(s) against %s", c.Regressions, fs.Arg(0))
	}
	return nil
}

// readSnapshot loads a -metrics-out JSON file.
func readSnapshot(path string) (obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return obs.Snapshot{}, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return obs.Snapshot{}, fmt.Errorf("parsing metrics snapshot %s: %w", path, err)
	}
	return s, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
