package experiment

// Build spans (DESIGN.md §10): each build runs under one root span whose
// stages the pipeline's layers open, and a sweep row's time is its own
// span's duration.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sddict/internal/obs"
	"sddict/internal/obs/analyze"
)

// tracedObserver returns an observer that journals into buf and carries
// a span layer, as cmd/sdd and cmd/table6 assemble one under -trace-out.
func tracedObserver(buf *bytes.Buffer) *obs.Observer {
	tr := obs.NewTracer(buf, time.Now)
	return &obs.Observer{
		Metrics: obs.NewMetrics(),
		Trace:   tr,
		Spans:   obs.NewSpans(&obs.Observer{Trace: tr}, time.Now, obs.SpanOptions{Sample: 1}),
	}
}

// spanEvents returns the `span` events of a trace, keyed by path.
func spanEvents(t *testing.T, buf *bytes.Buffer) map[string][]obs.Event {
	t.Helper()
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	out := map[string][]obs.Event{}
	for _, ev := range events {
		if ev.Type == "span" {
			path, _ := ev.Fields["path"].(string)
			out[path] = append(out[path], ev)
		}
	}
	return out
}

// TestBuildSpanStagesInPipelineOrder: a traced s298/diag build, run the
// way cmd/sdd runs it, emits exactly one span whose stages are the
// pipeline's layers in order, nest inside it, and cover at least 95% of
// its duration.
func TestBuildSpanStagesInPipelineOrder(t *testing.T) {
	var buf bytes.Buffer
	ob := tracedObserver(&buf)
	cfg := Config{Seed: 1, Workers: 1, Obs: ob}
	span := ob.StartSpan("s298/diag")
	ctx := obs.ContextWithSpan(context.Background(), span)
	pr, err := PrepareProfileCtx(ctx, "s298", Diagnostic, cfg)
	if err != nil {
		t.Fatal(err)
	}
	row, err := BuildRowCtx(ctx, pr, Diagnostic, cfg)
	span.EndBuild(ctx, err)
	if err != nil || row.Status != RowComplete {
		t.Fatalf("build: status %s, err %v", row.Status, err)
	}

	spans := spanEvents(t, &buf)
	if len(spans) != 1 || len(spans["s298/diag"]) != 1 {
		t.Fatalf("spans by path = %v, want one s298/diag span", spans)
	}
	f := spans["s298/diag"][0].Fields
	durUs := int64(f["dur_us"].(float64))
	var names []string
	var coveredUs int64
	for _, st := range f["stages"].([]any) {
		m := st.(map[string]any)
		names = append(names, m["name"].(string))
		coveredUs += int64(m["dur_us"].(float64))
	}
	want := []string{"gen", "collapse", "atpg.detect", "atpg.diag", "resp", "proc1", "proc2", "minimize"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("stages = %v, want %v", names, want)
	}
	if coveredUs*100 < durUs*95 {
		t.Errorf("stages cover %dus of a %dus span, want >= 95%%", coveredUs, durUs)
	}
	run, err := analyze.ReadRun(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if run.Spans != 1 || run.NestingViolations != 0 {
		t.Errorf("analyzed spans = %d, nesting violations = %d, want 1 and 0", run.Spans, run.NestingViolations)
	}
}

// TestSweepRowTimeIsTheRowsOwn: in a sweep of s298/diag then s27/diag,
// the report's row times come from each row's span, so the small second
// row reads faster than the first (at one worker a sweep-relative clock
// would read it slower), and row_elapsed_ms observes the whole row, test
// generation included. At two workers the rows' spans run concurrently.
func TestSweepRowTimeIsTheRowsOwn(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { testSweepRowTime(t, workers) })
	}
}

func testSweepRowTime(t *testing.T, workers int) {
	var buf bytes.Buffer
	ob := tracedObserver(&buf)
	specs := []RowSpec{
		{Circuit: "s298", TType: Diagnostic, Config: Config{Seed: 1}},
		{Circuit: "s27", TType: Diagnostic, Config: Config{Seed: 1}},
	}
	results := RunSweepObsCtx(context.Background(), workers, specs, ob, nil)
	if len(results) != 2 || results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("sweep results = %+v", results)
	}

	run, err := analyze.ReadRun(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Rows) != 2 || run.Rows[0].Row != "s298/diag" || run.Rows[1].Row != "s27/diag" {
		t.Fatalf("rows = %+v", run.Rows)
	}
	if big, small := run.Rows[0].ElapsedMs, run.Rows[1].ElapsedMs; small >= big {
		t.Errorf("s27/diag row reads %dms, s298/diag %dms: want the small row faster", small, big)
	}

	spanUs := int64(spanEvents(t, &buf)["s298/diag"][0].Fields["dur_us"].(float64))
	if got := results[0].Row.Elapsed.Microseconds(); got*10 < spanUs*9 {
		t.Errorf("s298/diag Row.Elapsed = %dus, its span %dus: the row time leaves part of the row out", got, spanUs)
	}
	hist := ob.Metrics.Snapshot().Histograms["row_elapsed_ms"]
	if hist.Count != 2 || hist.Sum*1000*10 < spanUs*9 {
		t.Errorf("row_elapsed_ms = %+v, want 2 samples summing to at least the s298/diag span (%dus)", hist, spanUs)
	}
}
