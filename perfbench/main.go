// Command perfbench is the repository's benchmark. It runs one workload
// for one seed and prints, as the last line of its standard output, one
// JSON object with the run's correctness verdict and its metrics: the
// end-to-end metrics with -trace 0, the per-layer metrics of a traced
// run with -trace 1. NOTES.md describes the workloads and the metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload serve-exact --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/experiment"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// circuits are built netlist to published artifact. With
	// measureBuild the builds are the measured phase; otherwise they are
	// part of setting up the server.
	circuits     []circuit
	measureBuild bool
	store        bool // serve with a durable case store
	mix          mix
}

var workloads = []workload{
	{name: "build-diag", measureBuild: true, mix: mix{noiseEvery: 4},
		circuits: []circuit{{"s298", experiment.Diagnostic}, {"s386", experiment.Diagnostic}}},
	{name: "build-10det", measureBuild: true, mix: mix{noiseEvery: 4},
		circuits: []circuit{{"s526", experiment.TenDetect}, {"s641", experiment.TenDetect}}},
	{name: "serve-exact", mix: mix{noiseEvery: 4},
		circuits: []circuit{{"s298", experiment.TenDetect}}},
	{name: "serve-recall", store: true, mix: mix{hot: 32, hotShare: 0.8, noiseEvery: 4},
		circuits: []circuit{{"s298", experiment.TenDetect}}},
}

const (
	setupMinReps  = 5                      // set-ups per run, at least; setup_s is their median
	setupMaxReps  = 200                    // set-ups per run, at most
	setupMinTime  = 3 * time.Second        // set-up repeats until this much time is spent
	warmup        = 500 * time.Millisecond // closed-loop requests sent before timing starts
	noopWindow    = 1 * time.Second        // timed no-op floor traffic in a traced run
	replayServe   = 2000                   // requests replayed by a serve workload's traced run
	replayBuild   = 600                    // requests replayed by a build workload's traced run
	deadline      = 170 * time.Second
	spanIDRequest = 1 << 32 // request spans take IDs from here; build spans count from 1
)

// conns is both the closed loop's connection count and the build worker
// count: one process uses at most two CPUs, or fewer if the machine has
// fewer.
var conns = min(2, runtime.NumCPU())

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failures, keeping the first few failures
// for the report.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err)
		}
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: build-diag, build-10det, serve-exact or serve-recall")
		seed    = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds = flag.Int("seconds", 10, "measuring time of the run")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for artifacts, case stores and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, out string, w io.Writer) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil || seconds < 1 {
		return fmt.Errorf("unknown workload %q or -seconds %d < 1", name, seconds)
	}
	dir := filepath.Join(out, fmt.Sprintf("%s-s%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	fmt.Fprintf(w, "perfbench: workload %s, seed %d, %d s, trace %v, %d connections and build workers\n",
		name, seed, seconds, traced, conns)
	var t tally
	var metrics map[string]metric
	var err error
	if traced {
		metrics, err = runTraced(ctx, w, wl, seed, dir, filepath.Join(out, fmt.Sprintf("spans-%s-s%d.jsonl", name, seed)), &t)
	} else {
		metrics, err = runMeasured(ctx, w, wl, seed, time.Duration(seconds)*time.Second, dir, &t)
	}
	if err != nil {
		return err
	}
	for _, e := range t.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// publishAll builds every circuit of the workload, applies the build
// gates, and writes the artifacts to dir.
func publishAll(ctx context.Context, wl *workload, dir string, t *tally) ([]*built, []string, error) {
	var bs []*built
	var paths []string
	for _, c := range wl.circuits {
		b, err := publish(ctx, c, conns)
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", c, err)
		}
		t.op(checkBuilt(b))
		path := filepath.Join(dir, c.name+"-"+string(c.tt)+".sdda")
		err = core.AtomicWriteFile(path, func(w io.Writer) error { _, err := w.Write(b.encoded); return err })
		if err != nil {
			return nil, nil, err
		}
		bs, paths = append(bs, b), append(paths, path)
	}
	return bs, paths, nil
}

// moreSetups reports whether another set-up should run: short set-ups
// repeat until setupMinTime has passed, so their median is steady.
func moreSetups(rep int, start time.Time) bool {
	return rep < setupMinReps || (rep < setupMaxReps && time.Since(start) < setupMinTime)
}

func sumElapsed(bs []*built) float64 {
	s := 0.0
	for _, b := range bs {
		s += b.elapsed.Seconds()
	}
	return s
}

func sumCPU(bs []*built) float64 {
	s := 0.0
	for _, b := range bs {
		s += b.cpu.Seconds()
	}
	return s
}

// runMeasured is the untraced run: builds, set-up and closed-loop
// traffic, timed end to end.
func runMeasured(ctx context.Context, w io.Writer, wl *workload, seed int64, seconds time.Duration, dir string, t *tally) (map[string]metric, error) {
	var bs []*built
	var paths []string
	var buildTimes, buildWall, setupTimes []float64 // build_s is CPU time; wall time is printed
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	stopServer := func() error {
		if srv == nil {
			return nil
		}
		err := srv.stop()
		srv = nil
		return err
	}
	storeDir := func(rep int) string {
		if !wl.store {
			return ""
		}
		return filepath.Join(dir, fmt.Sprintf("cases-%d", rep))
	}

	if wl.measureBuild {
		// One build pass: a pass takes 11-16 s, too long to repeat
		// within the time a run of every workload may take.
		var err error
		if bs, paths, err = publishAll(ctx, wl, dir, t); err != nil {
			return nil, err
		}
		buildTimes = append(buildTimes, sumCPU(bs))
		buildWall = append(buildWall, sumElapsed(bs))
	}
	// Set-up: publish (unless the builds were the measured phase), load
	// the artifacts into a fresh server and listen. Every set-up and the
	// traffic start on a collected heap, so none pays for the garbage of
	// what ran before it.
	for rep, start := 0, time.Now(); moreSetups(rep, start); rep++ {
		if err := stopServer(); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if !wl.measureBuild {
			if bs, paths, err = publishAll(ctx, wl, dir, t); err != nil {
				return nil, err
			}
			buildTimes = append(buildTimes, sumCPU(bs))
			buildWall = append(buildWall, sumElapsed(bs))
		}
		if srv, err = startServer(paths, storeDir(rep), true); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	for _, b := range bs {
		fmt.Fprintln(w, b.shape())
	}

	ts := newTargets(seed, paths, artifacts(bs), wl.mix)
	runtime.GC()
	loop := closedLoop(ctx, srv.url, conns, warmup, seconds,
		func(i int, buf []byte) request { return synth(seed, i, ts, wl.mix, buf) },
		func(r request, status int, body []byte) error { _, err := checkReply(r, status, body); return err })
	t.attempted += loop.attempts
	t.failed += loop.failed
	if loop.firstErr != nil {
		t.errs = append(t.errs, loop.firstErr)
	}
	fmt.Fprintf(w, "traffic: %d requests (%d timed, %d noisy) over %d connections, %d distinct faults, hot set %d at %.0f%%\n",
		loop.attempts, loop.timed, loop.noisy, conns, loop.faults, wl.mix.hot, 100*wl.mix.hotShare)
	if wl.store {
		hits, near, misses := srv.recallCounts()
		fmt.Fprintf(w, "case store on %s: recall hits %d, near %d, misses %d, cases %d\n",
			fsName(dir), hits, near, misses, srv.cases.Len())
		var err error
		if got := hits + near + misses; got != int64(loop.attempts) {
			err = fmt.Errorf("recall counters sum to %d for %d observations", got, loop.attempts)
		}
		t.op(err)
	}
	if err := stopServer(); err != nil {
		return nil, err
	}

	ws, err := summarize(loop.slices, slice)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "latency: %d timed requests in %d groups of %s slices; rps, p50 and p95 are medians over the groups\n",
		loop.timed, ws.groups, slice)
	all := slices.Concat(loop.slices...)
	sort.Float64s(all)
	if i, ok := rankIndex(len(all), 0.99); ok {
		fmt.Fprintf(w, "latency: pooled p99 %.1f us (%d samples beyond it), not a metric: it tracks host noise\n", all[i], len(all)-1-i)
	}
	var indSD, sdBits int64
	for _, b := range bs {
		indSD += b.indSD
		sdBits += b.sdBits
	}
	m := map[string]metric{
		"build_s":      {median(buildTimes), "s"},
		"ind_sd_pairs": {float64(indSD), "pairs"},
		"sd_bits":      {float64(sdBits), "bits"},
		"rps":          {ws.rps, "1/s"},
		"p50_us":       {ws.p50, "us"},
		"p95_us":       {ws.tail, "us"},
		"ok_frac":      {1 - float64(t.failed)/float64(max(1, t.attempted)), "frac"},
		"setup_s":      {median(setupTimes), "s"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
	}
	fmt.Fprintf(w, "build_s (CPU) over %d builds %.4g, wall %.4g; setup_s over %d set-ups %.4g; fail_frac %g\n",
		len(buildTimes), buildTimes, buildWall, len(setupTimes), setupTimes, 1-m["ok_frac"].Value)
	printMetrics(w, m)
	return m, nil
}

func artifacts(bs []*built) []*dictio.Artifact {
	out := make([]*dictio.Artifact, len(bs))
	for i, b := range bs {
		out[i] = b.art
	}
	return out
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsName names the filesystem holding dir, for the case-store report:
// fsync cost, and so recall latency, depends on it.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{0x01021994: "tmpfs", 0xef53: "ext2/3/4", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x794c7630: "overlayfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem 0x%x", st.Type)
}

func printMetrics(w io.Writer, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
