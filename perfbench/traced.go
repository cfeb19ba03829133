package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"sddict/internal/atpg"
	"sddict/internal/dictio"
	"sddict/internal/serve"
)

// layers lists, in pipeline order, the layers a traced run attributes
// self time to. "harness" is the no-op floor traffic; the unattributed
// remainder is the self time of the run and request root spans.
var layers = []string{"gen", "atpg", "resp", "core", "dictio", "serve", "casestore", "harness"}

// runTraced is the traced run. It publishes the workload's artifacts
// through experiment (untraced), then, inside one root span:
//   - rebuilds each circuit through the composed layer calls, whose
//     checksum must equal experiment's;
//   - loads each artifact;
//   - replays the workload's request stream through the layer
//     functions, and the same requests through the server's in-process
//     handler, whose candidates must agree;
//   - runs the no-op floor traffic.
//
// The untraced build and an untraced replay give the overhead base.
func runTraced(ctx context.Context, w io.Writer, wl *workload, seed int64, dir, spanPath string, t *tally) (map[string]metric, error) {
	refs, paths, err := publishAll(ctx, wl, dir, t)
	if err != nil {
		return nil, err
	}
	for _, b := range refs {
		fmt.Fprintln(w, b.shape())
	}
	n := replayServe
	if wl.measureBuild {
		n = replayBuild
	}
	ts := newTargets(seed, paths, artifacts(refs), wl.mix)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = synth(seed, i, ts, wl.mix, nil)
	}
	storeDir := func(name string) string {
		if !wl.store {
			return ""
		}
		return filepath.Join(dir, name)
	}

	// Untraced replay: the overhead base for the traced one.
	base, err := startServer(paths, storeDir("cases-untraced"), false)
	if err != nil {
		return nil, err
	}
	rpBase := newReplayer(ts, base.cases)
	t0 := time.Now()
	for _, r := range reqs {
		if _, err := rpBase.diagnose(nil, 0, r); err != nil {
			base.stop()
			return nil, err
		}
	}
	untracedReplay := time.Since(t0)
	if err := base.stop(); err != nil {
		return nil, err
	}

	rec := newRecorder()
	root := rec.begin(0, "run "+wl.name, "")
	tb := time.Now()
	builds := make([]*built, len(wl.circuits))
	for k, c := range wl.circuits {
		b, err := publishComposed(ctx, c, conns, rec, uint64(k+1))
		if err != nil {
			return nil, fmt.Errorf("composed build of %s: %w", c, err)
		}
		t.op(checkBuilt(b))
		if b.art.Checksum != refs[k].art.Checksum {
			t.op(fmt.Errorf("%s: composed pipeline published %08x, experiment %08x", c, b.art.Checksum, refs[k].art.Checksum))
		} else {
			t.op(nil)
		}
		builds[k] = b
	}
	tracedBuild := time.Since(tb)
	for k, p := range paths {
		err := rec.do(uint64(k+1), "dictio.load", "dictio", func() error { _, err := dictio.Load(p); return err })
		if err != nil {
			return nil, err
		}
	}

	replayStore, err := startServer(paths, storeDir("cases-replay"), false)
	if err != nil {
		return nil, err
	}
	defer replayStore.stop()
	rp := newReplayer(ts, replayStore.cases)
	got := make([]serve.DiagnoseResult, n)
	tr := time.Now()
	for i, r := range reqs {
		id := uint64(spanIDRequest + i)
		ri := rec.begin(id, "request", "")
		got[i], err = rp.diagnose(rec, id, r)
		rec.end(ri)
		if err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
	}
	tracedReplay := time.Since(tr)

	hs, err := startServer(paths, storeDir("cases-handler"), false)
	if err != nil {
		return nil, err
	}
	defer hs.stop()
	h := hs.srv.Handler()
	handlerUs := make([]float64, n)
	for i, r := range reqs {
		var status int
		var body []byte
		s := rec.begin(uint64(spanIDRequest+i), "serve.handler", "serve")
		status, body = serveInProcess(h, r)
		rec.end(s)
		sp := rec.spans[s]
		handlerUs[i] = float64(sp.End-sp.Start) / 1e3
		res, err := checkReply(r, status, body)
		if err == nil {
			err = sameResult(i, got[i], res)
		}
		t.op(err)
	}
	hits, near, misses := hs.recallCounts()
	if wl.store {
		var err error
		if hits+near+misses != int64(n) {
			err = fmt.Errorf("handler recall counters sum to %d for %d observations", hits+near+misses, n)
		} else if hits != int64(rp.exactHits) || near != int64(rp.nearHits) || misses != int64(rp.miss) {
			err = fmt.Errorf("handler recalled %d/%d/%d (exact/near/miss), replay %d/%d/%d",
				hits, near, misses, rp.exactHits, rp.nearHits, rp.miss)
		}
		t.op(err)
	}

	noopURL, stopNoop, err := startNoop()
	if err != nil {
		return nil, err
	}
	var noop loopResult
	rec.do(0, "noop floor", "harness", func() error {
		noop = closedLoop(ctx, noopURL, conns, warmup, noopWindow,
			func(i int, _ []byte) request { return reqs[i%n] },
			func(r request, status int, body []byte) error {
				if status != 200 {
					return fmt.Errorf("no-op request %d: status %d", r.index, status)
				}
				return nil
			})
		return nil
	})
	if err := stopNoop(); err != nil {
		return nil, err
	}
	t.attempted += noop.attempts
	t.failed += noop.failed
	if noop.firstErr != nil {
		t.errs = append(t.errs, noop.firstErr)
	}
	rec.end(root)
	floor, err := summarize(noop.slices, slice)
	if err != nil {
		return nil, fmt.Errorf("no-op floor: %w", err)
	}
	if err := rec.writeSpans(spanPath); err != nil {
		return nil, err
	}

	m := layerMetrics(rec.spans, builds, n, rp, len(paths))
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("serve.handler_p50_us", median(handlerUs), "us")
	put("serve.noop_p50_us", floor.p50, "us")
	put("serve.noop_rps", floor.rps, "1/s")
	obsTotal := float64(max(1, hits+near+misses))
	put("casestore.exact_frac", float64(hits)/obsTotal, "frac")
	put("casestore.near_frac", float64(near)/obsTotal, "frac")
	put("casestore.miss_frac", float64(misses)/obsTotal, "frac")
	cases := 0
	if hs.cases != nil {
		cases = hs.cases.Len()
	}
	put("casestore.cases", float64(cases), "count")
	untraced := sumElapsed(refs) + untracedReplay.Seconds()
	put("trace.overhead_frac", (tracedBuild.Seconds()+tracedReplay.Seconds())/untraced-1, "frac")

	// Self time per layer; with the remainder it adds up to the wall.
	self := selfTimes(rec.spans)
	wall := rec.spans[root].End - rec.spans[root].Start
	put("trace.wall_ms", float64(wall)/1e6, "ms")
	fmt.Fprintf(w, "self time over %d spans (traced wall %.1f ms):\n", len(rec.spans), float64(wall)/1e6)
	var sum int64
	for _, l := range append(layers, "") {
		name := l
		if l == "" {
			name = "unattributed"
		}
		sum += self[l]
		put("self."+name+"_ms", float64(self[l])/1e6, "ms")
		fmt.Fprintf(w, "  %-13s %12.3f ms %6.2f%%\n", name, float64(self[l])/1e6, 100*float64(self[l])/float64(wall))
	}
	fmt.Fprintf(w, "  layers + unattributed = %.3f ms of %.3f ms traced wall\n", float64(sum)/1e6, float64(wall)/1e6)
	if sum != wall {
		t.op(fmt.Errorf("self times sum to %d ns, traced wall is %d ns", sum, wall))
	}
	fmt.Fprintf(w, "agreement: composed build checksums and %d replayed results checked against experiment and the handler\n", n)
	printMetrics(w, m)
	return m, nil
}

// sameResult reports whether the replay and the handler diagnosed
// request i identically.
func sameResult(i int, replay, handler serve.DiagnoseResult) error {
	a, err1 := json.Marshal(replay)
	b, err2 := json.Marshal(handler)
	if err1 != nil || err2 != nil || string(a) != string(b) {
		return fmt.Errorf("request %d: replay %s, handler %s", i, a, b)
	}
	return nil
}

// layerMetrics derives the per-layer metrics from the spans and the
// composed builds. Layer times are per circuit (builds) or per replayed
// observation (serve) means, so they add up; counts are sums.
func layerMetrics(spans []span, builds []*built, n int, rp *replayer, artifacts int) map[string]metric {
	dur := make(map[string]int64)
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
	}
	nb := float64(len(builds))
	perBuild := func(names ...string) float64 {
		var d int64
		for _, nm := range names {
			d += dur[nm]
		}
		return float64(d) / 1e6 / nb
	}
	perObs := func(names ...string) float64 {
		var d int64
		for _, nm := range names {
			d += dur[nm]
		}
		return float64(d) / 1e3 / float64(n)
	}
	var det atpg.GenStats
	var diag atpg.DiagStats
	var cells, evals, restarts, bytes int64
	for _, b := range builds {
		det.RandomTests += b.detect.RandomTests
		det.PodemTests += b.detect.PodemTests
		det.Untestable += b.detect.Untestable
		det.Aborted += b.detect.Aborted
		diag.MiterCalls += b.diag.MiterCalls
		diag.SATCalls += b.diag.SATCalls
		diag.AddedTests += b.diag.AddedTests
		diag.Equivalent += b.diag.Equivalent
		diag.Aborted += b.diag.Aborted
		cells += b.cells
		evals += b.stats.CandidateEvals
		restarts += int64(b.stats.Restarts)
		bytes += int64(len(b.encoded))
	}
	yield := 0.0
	if calls := diag.MiterCalls + diag.SATCalls; calls > 0 {
		yield = float64(diag.AddedTests) / float64(calls)
	}
	return map[string]metric{
		"gen.synth_ms":             {perBuild("gen.synthesize", "netlist.combinationalize", "fault.collapse"), "ms"},
		"atpg.detect_ms":           {perBuild("atpg.detect"), "ms"},
		"atpg.detect_random_tests": {float64(det.RandomTests), "count"},
		"atpg.detect_podem_tests":  {float64(det.PodemTests), "count"},
		"atpg.detect_untestable":   {float64(det.Untestable), "count"},
		"atpg.detect_aborted":      {float64(det.Aborted), "count"},
		"atpg.diag_ms":             {perBuild("atpg.diag"), "ms"},
		"atpg.diag_miter_calls":    {float64(diag.MiterCalls), "count"},
		"atpg.diag_sat_calls":      {float64(diag.SATCalls), "count"},
		"atpg.diag_added_tests":    {float64(diag.AddedTests), "count"},
		"atpg.diag_equivalent":     {float64(diag.Equivalent), "count"},
		"atpg.diag_aborted":        {float64(diag.Aborted), "count"},
		"atpg.diag_yield":          {yield, "tests/call"},
		"resp.build_ms":            {perBuild("resp.build"), "ms"},
		"resp.matrix_cells":        {float64(cells), "count"},
		"core.samediff_ms":         {perBuild("core.samediff"), "ms"},
		"core.cand_evals":          {float64(evals), "count"},
		"core.restarts":            {float64(restarts), "count"},
		"core.compile_ms":          {perBuild("core.compile"), "ms"},
		"core.signature_us":        {perObs("core.signature"), "us"},
		"core.match_us":            {perObs("core.match", "core.rank"), "us"},
		"core.rank_frac":           {float64(rp.ranked) / float64(n), "frac"},
		"dictio.encode_ms":         {perBuild("dictio.encode"), "ms"},
		"dictio.artifact_bytes":    {float64(bytes), "B"},
		"dictio.load_ms":           {float64(dur["dictio.load"]) / 1e6 / float64(artifacts), "ms"},
		"dictio.parse_us":          {perObs("dictio.parse"), "us"},
		"serve.decode_us":          {perObs("serve.decode"), "us"},
		"serve.encode_us":          {perObs("serve.encode"), "us"},
		"casestore.recall_us":      {perObs("casestore.recall"), "us"},
		"casestore.record_us":      {perObs("casestore.record"), "us"},
	}
}
