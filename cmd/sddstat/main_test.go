package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sddict/internal/core"
	"sddict/internal/obs"
	"sddict/internal/obs/analyze"
)

// writeTrace writes a small single-build trace file and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	now := time.Unix(0, 0)
	tr, err := obs.NewFileTracer(path, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	emit := func(ms int64, typ string, fields map[string]any) {
		now = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond)
		tr.Emit(typ, fields)
	}
	emit(0, "build_start", map[string]any{
		"schema": obs.TraceSchemaVersion, "faults": 32, "tests": 8,
		"seed": 1, "workers": 1, "indist_full": 2,
	})
	emit(10, "restart_start", map[string]any{"restart": 0})
	emit(50, "restart_end", map[string]any{"restart": 0, "indist": 6, "best": 6, "improved": true})
	emit(60, "checkpoint_save", map[string]any{"restarts": 1, "best_indist": 6, "persisted": true})
	emit(80, "proc2_sweep", map[string]any{"sweep": 1, "indist": 5})
	emit(90, "build_end", map[string]any{"indist": 5, "restarts": 1, "interrupted": false})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeSnapshot marshals a metrics snapshot to a JSON file exactly the
// way ObsSession.Finish does and returns its path.
func writeSnapshot(t *testing.T, name string, build func(*obs.Metrics)) string {
	t.Helper()
	m := obs.NewMetrics()
	build(m)
	snap := m.Snapshot()
	path := filepath.Join(t.TempDir(), name)
	err := core.AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportText(t *testing.T) {
	trace := writeTrace(t)
	metrics := writeSnapshot(t, "m.json", func(m *obs.Metrics) {
		m.Add(obs.CandidateScans, 777)
		m.Observe(obs.RestartIndist, 6)
	})

	var out bytes.Buffer
	if err := runReport([]string{trace, metrics}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"build: 32 faults x 8 tests",
		"final indist 5 after 1 restarts",
		"stage breakdown:",
		"restart convergence",
		"checkpoints: 1 saves (1 persisted, 0 loads)",
		"candidate_scans = 777",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestReportJSON(t *testing.T) {
	var out bytes.Buffer
	if err := runReport([]string{"-json", writeTrace(t)}, &out); err != nil {
		t.Fatal(err)
	}
	var run analyze.Run
	if err := json.Unmarshal(out.Bytes(), &run); err != nil {
		t.Fatalf("output is not a Run JSON: %v\n%s", err, out.String())
	}
	if run.Events != 6 || !run.Build.Completed || run.Build.FinalIndist != 5 {
		t.Errorf("decoded run = %+v", run)
	}
}

func TestReportTruncatedTraceStillReports(t *testing.T) {
	full, err := os.ReadFile(writeTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.jsonl")
	err = core.AtomicWriteFile(torn, func(w io.Writer) error {
		_, werr := w.Write(full[:len(full)-10])
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runReport([]string{torn}, &out); err != nil {
		t.Fatalf("truncated trace must still report: %v", err)
	}
	if !strings.Contains(out.String(), "TRUNCATED") {
		t.Errorf("report must flag truncation:\n%s", out.String())
	}
}

func TestReportRefusesNewerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.jsonl")
	tr, err := obs.NewFileTracer(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit("build_start", map[string]any{"schema": obs.TraceSchemaVersion + 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	err = runReport([]string{path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("future-schema trace must be refused, got %v", err)
	}
}

// TestReportRefusesV1Trace: a trace recorded before builds were timed by
// spans (schema v1, checked in from a real run) is refused with a
// request to re-record it, not misreported.
func TestReportRefusesV1Trace(t *testing.T) {
	err := runReport([]string{filepath.Join("testdata", "trace-v1.jsonl")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "schema v1") || !strings.Contains(err.Error(), "re-record") {
		t.Errorf("v1 trace must be refused with a re-record hint, got %v", err)
	}
}

func TestReportUsageErrors(t *testing.T) {
	if err := runReport(nil, io.Discard); err == nil {
		t.Error("no arguments must be a usage error")
	}
	if err := runCompare([]string{"only-one.json"}, io.Discard); err == nil {
		t.Error("compare with one argument must be a usage error")
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	a := writeSnapshot(t, "a.json", func(m *obs.Metrics) { m.Add(obs.SimBatches, 100) })
	b := writeSnapshot(t, "b.json", func(m *obs.Metrics) { m.Add(obs.SimBatches, 150) })

	var out bytes.Buffer
	err := runCompare([]string{a, b}, &out)
	if err == nil {
		t.Fatal("50% counter growth must fail the default compare")
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Errorf("error = %v", err)
	}
	if !strings.Contains(out.String(), "sim_batches") {
		t.Errorf("table must name the regressed counter:\n%s", out.String())
	}

	// Same files, loosened threshold: passes.
	if err := runCompare([]string{"-counters", "75", a, b}, io.Discard); err != nil {
		t.Errorf("75%% threshold must pass: %v", err)
	}
	// Reversed direction fails too: the gate is on drift, not growth — a
	// counter dropping a third means the run changed, not that it won.
	if err := runCompare([]string{b, a}, io.Discard); err == nil {
		t.Error("a -33% counter drop must also fail the default compare")
	}
}

func TestCompareJSON(t *testing.T) {
	a := writeSnapshot(t, "a.json", func(m *obs.Metrics) { m.Add(obs.RestartsRun, 10) })
	b := writeSnapshot(t, "b.json", func(m *obs.Metrics) { m.Add(obs.RestartsRun, 10) })

	var out bytes.Buffer
	if err := runCompare([]string{"-json", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	var c analyze.Comparison
	if err := json.Unmarshal(out.Bytes(), &c); err != nil {
		t.Fatalf("output is not a Comparison JSON: %v\n%s", err, out.String())
	}
	if c.Regressions != 0 || len(c.Deltas) != 1 {
		t.Errorf("comparison = %+v", c)
	}
}
