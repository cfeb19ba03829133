package sddict_test

// End-to-end contract for the diagnosis service (DESIGN.md §12), exec'd
// against freshly built binaries because signal delivery, exit codes and
// real sockets cannot be observed in-process:
//
//   - TestServeEndToEnd: publish an artifact with `sdd -publish`, diagnose
//     an injected defect with batch `diagnose`, then ask a running
//     `sddserve` the same question over HTTP — the ranked candidate
//     indices must be identical. SIGTERM then drains the server: exit 0,
//     trace ending on a clean serve_shutdown event.
//
//   - TestServeChaosShedDrain: a deliberately tiny in-flight cap plus a
//     chaos delay under concurrent `sddload` traffic must shed with
//     503/Retry-After (visible as client-side retries), and a SIGTERM
//     mid-barrage must still produce a clean drain — degradation, never
//     collapse.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/logic"
	"sddict/internal/obs"
	"sddict/internal/resp"
	"sddict/internal/serve"
)

// buildBinaries compiles the named commands into one temp dir and
// returns their paths keyed by name.
func buildBinaries(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, b)
		}
		out[name] = bin
	}
	return out
}

// startServer launches sddserve with the given extra flags, waits for
// its "listening on" handshake, and returns the command and bound
// address. The caller owns Wait.
func startServer(t *testing.T, bin string, extra ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "sddserve: listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("sddserve never printed its listen address; stderr:\n%s", stderr.String())
	}
	// Keep draining stdout so the server never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return cmd, addr, &stderr
}

// candidateIndices extracts the exact-match fault indices from batch
// diagnose output ("candidate faults (2): #3 #14").
func candidateIndices(t *testing.T, out string) []int {
	t.Helper()
	re := regexp.MustCompile(`candidate faults \(\d+\):((?: #\d+)+)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no candidate line in diagnose output:\n%s", out)
	}
	var ids []int
	for _, tok := range strings.Fields(m[1]) {
		n, err := strconv.Atoi(strings.TrimPrefix(tok, "#"))
		if err != nil {
			t.Fatalf("candidate token %q: %v", tok, err)
		}
		ids = append(ids, n)
	}
	return ids
}

func postDiagnose(t *testing.T, addr string, req serve.DiagnoseRequest) (serve.DiagnoseResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /diagnose: %v", err)
	}
	defer resp.Body.Close()
	var out serve.DiagnoseResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// assertTraceEndsClean parses the server trace and checks the drain
// choreography: a serve_drain event exists and the very last event is
// serve_shutdown with clean=true.
func assertTraceEndsClean(t *testing.T, tracePath string) {
	t.Helper()
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	events, err := obs.ReadEvents(tf)
	if err != nil {
		t.Fatalf("server trace does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("server trace is empty")
	}
	drained := false
	for _, e := range events {
		if e.Type == "serve_drain" {
			drained = true
		}
	}
	if !drained {
		t.Error("trace has no serve_drain event")
	}
	last := events[len(events)-1]
	if last.Type != "serve_shutdown" {
		t.Errorf("trace ends with %q, want serve_shutdown", last.Type)
	}
	if clean, _ := last.Fields["clean"].(bool); !clean {
		t.Errorf("serve_shutdown not clean: %+v", last)
	}
}

func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("execs freshly built binaries; skipped in -short mode")
	}
	bins := buildBinaries(t, "sdd", "diagnose", "sddserve")
	dir := artifactDir(t)
	artPath := filepath.Join(dir, "s27.sdda")
	obsPath := filepath.Join(dir, "observed.txt")

	// Publish the dictionary and dump an injected defect's responses in
	// one pipeline run.
	pub := exec.Command(bins["sdd"], "-circuit", "s27", "-seed", "3",
		"-publish", artPath, "-inject", "5", "-dump-responses", obsPath)
	if out, err := pub.CombinedOutput(); err != nil {
		t.Fatalf("sdd -publish: %v\n%s", err, out)
	}

	// Batch diagnosis: the reference ranking.
	diag := exec.Command(bins["diagnose"], "-dict", artPath, "-responses", obsPath)
	diagOut, err := diag.CombinedOutput()
	if err != nil {
		t.Fatalf("diagnose: %v\n%s", err, diagOut)
	}
	want := candidateIndices(t, string(diagOut))

	tracePath := filepath.Join(dir, "serve-trace.jsonl")
	srv, addr, stderr := startServer(t, bins["sddserve"],
		"-dict", artPath, "-trace-out", tracePath)

	lines := readResponseLines(t, obsPath)
	single, status := postDiagnose(t, addr, serve.DiagnoseRequest{Dictionary: artPath, Responses: lines})
	if status != http.StatusOK || len(single.Results) != 1 {
		t.Fatalf("single diagnose: status %d, results %+v", status, single.Results)
	}
	if !single.Results[0].Exact {
		t.Fatalf("service found no exact match for a modeled fault: %+v", single.Results[0])
	}
	got := make([]int, 0, len(single.Results[0].Candidates))
	for _, c := range single.Results[0].Candidates {
		got = append(got, c.Fault)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("service candidates %v != batch diagnose candidates %v", got, want)
	}

	// Batch parity over the wire: the same observation twice must give
	// two byte-identical results.
	batch, status := postDiagnose(t, addr, serve.DiagnoseRequest{Dictionary: artPath, Batch: [][]string{lines, lines}})
	if status != http.StatusOK || len(batch.Results) != 2 {
		t.Fatalf("batch diagnose: status %d, %d results", status, len(batch.Results))
	}
	r0, _ := json.Marshal(batch.Results[0])
	r1, _ := json.Marshal(batch.Results[1])
	s0, _ := json.Marshal(single.Results[0])
	if !bytes.Equal(r0, r1) || !bytes.Equal(r0, s0) {
		t.Errorf("batch results diverge: %s / %s / single %s", r0, r1, s0)
	}

	// SIGTERM: drain and exit 0 with a clean shutdown trace.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := waitTimeout(t, srv, 30*time.Second); err != nil {
		t.Errorf("drained server exit: %v (want 0); stderr:\n%s", err, stderr.String())
	}
	assertTraceEndsClean(t, tracePath)
}

func readResponseLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

// waitTimeout waits for cmd with a deadline, killing it on expiry.
func waitTimeout(t *testing.T, cmd *exec.Cmd, d time.Duration) error {
	t.Helper()
	timer := time.AfterFunc(d, func() { cmd.Process.Kill() })
	defer timer.Stop()
	return cmd.Wait()
}

// publishToyArtifact writes a small in-process pass/fail artifact (the
// same geometry the serve package tests use) for the chaos run, which
// needs no circuit pipeline — just a valid artifact both sides share.
func publishToyArtifact(t *testing.T, path string) {
	t.Helper()
	parse := func(s string) logic.BitVec {
		v, err := dictio.ParseVector(s, len(s))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	ff := []logic.BitVec{parse("000"), parse("111")}
	responses := [][]logic.BitVec{
		{parse("001"), parse("000"), parse("010")},
		{parse("111"), parse("011"), parse("111")},
	}
	m := resp.FromResponses(3, ff, responses)
	compiled, err := core.NewPassFail(m).Compile()
	if err != nil {
		t.Fatal(err)
	}
	art, err := dictio.New(compiled, dictio.Header{
		Circuit: "toy", TestSet: "exhaustive", Seed: 7,
		Faults: []string{"g0 s-a-0", "g1 s-a-1", "g2 s-a-0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := art.Save(path); err != nil {
		t.Fatal(err)
	}
}

// TestServeTraceJoin drives the whole tracing loop end to end: a traced
// sddserve under sddload traffic, then `sddstat serve` joining the
// server span journal against the client journal by request ID. This is
// the "chase a tail latency" workflow from the README, exec'd for real.
func TestServeTraceJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("execs freshly built binaries; skipped in -short mode")
	}
	bins := buildBinaries(t, "sddserve", "sddload", "sddstat")
	dir := artifactDir(t)
	artPath := filepath.Join(dir, "toy.sdda")
	publishToyArtifact(t, artPath)

	spansPath := filepath.Join(dir, "spans.jsonl")
	clientPath := filepath.Join(dir, "client.jsonl")
	srv, addr, stderr := startServer(t, bins["sddserve"],
		"-dict", artPath, "-trace-out", spansPath, "-trace-sample", "1")

	load := exec.Command(bins["sddload"],
		"-addr", addr, "-dict", artPath,
		"-clients", "4", "-requests", "40", "-seed", "11",
		"-journal", clientPath)
	loadOut, err := load.CombinedOutput()
	if err != nil {
		t.Fatalf("sddload: %v\n%s", err, loadOut)
	}
	// Satellite check: the load report names its slowest request IDs, the
	// handle the operator greps the span journal for.
	if !strings.Contains(string(loadOut), "slow request_id=") {
		t.Errorf("sddload report has no slow-request exemplars:\n%s", loadOut)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := waitTimeout(t, srv, 30*time.Second); err != nil {
		t.Errorf("drained server exit: %v (want 0); stderr:\n%s", err, stderr.String())
	}

	stat := exec.Command(bins["sddstat"], "serve", spansPath, clientPath)
	statOut, err := stat.CombinedOutput()
	if err != nil {
		t.Fatalf("sddstat serve: %v\n%s", err, statOut)
	}
	report := string(statOut)
	saveArtifactOnFailure(t, "sddstat-serve.txt", func() []byte { return statOut })
	for _, want := range []string{
		"serve span journal:",
		"stage breakdown:",
		"decode", "parse", "scan", "encode",
		"client join: joined=",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("sddstat serve report missing %q:\n%s", want, report)
		}
	}
	// -dict preloads the artifact, so no request finds the registry
	// cold; the body decodes once per request.
	if strings.Contains(report, "  load ") {
		t.Errorf("preloaded registry reports a load stage:\n%s", report)
	}
	if d := regexp.MustCompile(`decode +count=(\d+)`).FindStringSubmatch(report); d == nil || d[1] != "40" {
		t.Errorf("decode stage count %v, want one per request (40):\n%s", d, report)
	}
	m := regexp.MustCompile(`client join: joined=(\d+)`).FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no join line in report:\n%s", report)
	}
	if joined, _ := strconv.Atoi(m[1]); joined != 40 {
		t.Errorf("joined %s of 40 requests by ID:\n%s", m[1], report)
	}
}

func TestServeChaosShedDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("execs freshly built binaries; skipped in -short mode")
	}
	bins := buildBinaries(t, "sddserve", "sddload")
	dir := artifactDir(t)
	artPath := filepath.Join(dir, "toy.sdda")
	publishToyArtifact(t, artPath)

	tracePath := filepath.Join(dir, "chaos-trace.jsonl")
	srv, addr, stderr := startServer(t, bins["sddserve"],
		"-dict", artPath, "-trace-out", tracePath,
		"-max-inflight", "1", "-chaos-delay", "40ms", "-retry-after", "1s")

	// A barrage far wider than the in-flight cap: shedding is certain.
	load := exec.Command(bins["sddload"],
		"-addr", addr, "-dict", artPath,
		"-clients", "8", "-requests", "400", "-retries", "8",
		"-seed", "5", "-chaos")
	var loadOut bytes.Buffer
	load.Stdout = &loadOut
	load.Stderr = &loadOut
	if err := load.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { load.Process.Kill(); load.Wait() }()

	// SIGTERM mid-barrage: the server must shed, finish what it
	// admitted, and exit 0 while the client storm is still running.
	time.Sleep(700 * time.Millisecond)
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := waitTimeout(t, srv, 30*time.Second); err != nil {
		t.Errorf("server under chaos exit: %v (want 0); stderr:\n%s", err, stderr.String())
	}
	assertTraceEndsClean(t, tracePath)

	// The chaos driver tolerates the dead server and exits 0 with a
	// degradation report.
	if err := waitTimeout(t, load, 60*time.Second); err != nil {
		t.Errorf("sddload -chaos exit: %v (want 0)\n%s", err, loadOut.String())
	}
	out := loadOut.String()
	m := regexp.MustCompile(`shed=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("sddload report has no shed count:\n%s", out)
	}
	if shed, _ := strconv.Atoi(m[1]); shed == 0 {
		t.Errorf("no requests were shed despite -max-inflight 1 under 8 clients:\n%s", out)
	}
	saveArtifactOnFailure(t, "sddload.txt", func() []byte { return []byte(out) })
}
