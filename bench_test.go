// Package sddict_test holds the benchmark harness that regenerates every
// table of the paper plus the ablations indexed in DESIGN.md.
//
// Run everything (the full Table 6 sweep takes tens of minutes on one core):
//
//	go test -bench=. -benchmem
//
// Quick pass (small circuits only):
//
//	go test -short -bench=. -benchmem
//
// Benchmarks report their experimental outputs as custom metrics
// (ind_full, ind_pf, ind_sd, tests, ...), so the bench log doubles as the
// reproduction record; cmd/table6 renders the same data as a table.
package sddict_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sddict/internal/core"
	"sddict/internal/diagnose"
	"sddict/internal/experiment"
	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/resp"
)

// prepCache shares the expensive front half of the pipeline (circuit
// synthesis, ATPG, fault simulation) across benchmarks. The mutex stays
// held across the fill so concurrent callers missing on the same key
// block behind one PrepareProfile instead of each running their own
// (the earlier sync.Map version let two misses prepare the same profile
// twice, wasting minutes on the big circuits).
var (
	prepMu    sync.Mutex
	prepCache = map[string]*experiment.Prepared{}
)

func prepared(b *testing.B, circuit string, tt experiment.TestSetType) *experiment.Prepared {
	b.Helper()
	key := circuit + "/" + string(tt)
	prepMu.Lock()
	defer prepMu.Unlock()
	if pr, ok := prepCache[key]; ok {
		return pr
	}
	pr, err := experiment.PrepareProfile(circuit, tt, experiment.Config{Seed: 1})
	if err != nil {
		b.Fatalf("prepare %s: %v", key, err)
	}
	prepCache[key] = pr
	return pr
}

// smallCircuits are cheap enough for -short runs; the rest complete the
// paper's Table 6.
var smallCircuits = []string{
	"s208", "s298", "s344", "s382", "s386", "s400", "s420", "s510", "s526",
}

var largeCircuits = []string{
	"s641", "s820", "s953", "s1196", "s1423", "s5378", "s9234",
}

// BenchmarkTable6 regenerates the paper's Table 6, one sub-benchmark per
// (circuit, test-set type) row. Row values surface as custom metrics.
func BenchmarkTable6(b *testing.B) {
	circuits := append([]string{}, smallCircuits...)
	if !testing.Short() {
		circuits = append(circuits, largeCircuits...)
	}
	for _, name := range circuits {
		for _, tt := range []experiment.TestSetType{experiment.Diagnostic, experiment.TenDetect} {
			b.Run(fmt.Sprintf("%s/%s", name, tt), func(b *testing.B) {
				pr := prepared(b, name, tt)
				var row experiment.Row
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					row = experiment.BuildRow(pr, tt, experiment.Config{Seed: 1})
				}
				b.ReportMetric(float64(row.Tests), "tests")
				b.ReportMetric(float64(row.IndFull), "ind_full")
				b.ReportMetric(float64(row.IndPF), "ind_pf")
				b.ReportMetric(float64(row.IndSDRand), "ind_sd_rand")
				b.ReportMetric(float64(row.IndSDRepl), "ind_sd_repl")
				b.ReportMetric(float64(row.SizeSD)/float64(row.SizePF), "size_sd_over_pf")
			})
		}
	}
}

// BenchmarkAblationSeeding (DESIGN.md A1) compares three construction
// strategies on the same matrix: Procedure 1 restarts alone, Procedure 2
// from fault-free baselines alone, and the combined default.
func BenchmarkAblationSeeding(b *testing.B) {
	// A diagnostic matrix is used because 10-detection matrices often hit
	// the full-dictionary floor on the first pass, hiding any difference
	// between strategies.
	pr := prepared(b, "s526", experiment.Diagnostic)
	variants := []struct {
		name string
		opts func() core.Options
	}{
		{"proc1-restarts-only", func() core.Options {
			o := core.DefaultOptions
			o.RunProcedure2 = false
			o.SeedFaultFree = false
			return o
		}},
		{"seeded-proc2-only", func() core.Options {
			o := core.DefaultOptions
			o.Calls1 = 0
			o.MaxRestarts = 1
			o.RunProcedure2 = false
			o.SeedFaultFree = true
			return o
		}},
		{"combined-default", func() core.Options { return core.DefaultOptions }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			opts := v.opts()
			opts.Seed = 1
			var st core.BuildStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = core.BuildSameDiff(pr.Matrix, opts)
			}
			b.ReportMetric(float64(st.IndistFinal), "ind_sd")
			b.ReportMetric(float64(st.Restarts), "restarts")
			b.ReportMetric(float64(st.CandidateEvals), "cand_evals")
		})
	}
}

// BenchmarkAblationLower (DESIGN.md A2) sweeps the paper's LOWER cutoff:
// smaller values evaluate fewer baseline candidates per test but may miss
// the per-test optimum. lower=0 is the exhaustive scan.
func BenchmarkAblationLower(b *testing.B) {
	pr := prepared(b, "s526", experiment.Diagnostic)
	for _, lower := range []int{1, 5, 10, 0} {
		name := fmt.Sprintf("lower=%d", lower)
		if lower == 0 {
			name = "lower=inf"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions
			opts.Seed = 1
			opts.Lower = lower
			opts.RunProcedure2 = false
			opts.SeedFaultFree = false
			var st core.BuildStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st = core.BuildSameDiff(pr.Matrix, opts)
			}
			b.ReportMetric(float64(st.IndistProc1), "ind_sd_rand")
			b.ReportMetric(float64(st.CandidateEvals)/float64(st.Restarts), "cand_evals_per_restart")
		})
	}
}

// BenchmarkExtensionMultiBaseline (DESIGN.md A3) measures the two-baseline
// extension against the standard single-baseline dictionary.
func BenchmarkExtensionMultiBaseline(b *testing.B) {
	pr := prepared(b, "s298", experiment.Diagnostic)
	b.Run("one-baseline", func(b *testing.B) {
		opts := core.DefaultOptions
		opts.Seed = 1
		var d *core.Dictionary
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, _ = core.BuildSameDiff(pr.Matrix, opts)
		}
		b.ReportMetric(float64(d.Indistinguished()), "ind_sd")
		b.ReportMetric(float64(d.NominalSizeBits()), "size_bits")
	})
	b.Run("two-baselines", func(b *testing.B) {
		opts := core.DefaultOptions
		opts.Seed = 1
		var d *core.Dictionary
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, _ = core.BuildSameDiffMulti(pr.Matrix, opts)
		}
		b.ReportMetric(float64(d.Indistinguished()), "ind_sd")
		b.ReportMetric(float64(d.NominalSizeBits()), "size_bits")
	})
}

// BenchmarkExtensionStorageMin (DESIGN.md A4) quantifies the paper's
// remark that the fault-free vector can replace many selected baselines:
// stored baselines and resulting size with and without minimization.
func BenchmarkExtensionStorageMin(b *testing.B) {
	pr := prepared(b, "s344", experiment.TenDetect)
	for _, minimize := range []bool{false, true} {
		name := "minimize=off"
		if minimize {
			name = "minimize=on"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions
			opts.Seed = 1
			opts.MinimizeStorage = minimize
			var d *core.Dictionary
			var st core.BuildStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, st = core.BuildSameDiff(pr.Matrix, opts)
			}
			b.ReportMetric(float64(st.StoredBaselines), "stored_baselines")
			b.ReportMetric(float64(d.SizeBits()), "size_bits")
			b.ReportMetric(float64(st.IndistFinal), "ind_sd")
		})
	}
}

// BenchmarkDiagnosisResolution (DESIGN.md D1) measures end-use diagnosis
// quality: expected candidate-set size per dictionary kind.
func BenchmarkDiagnosisResolution(b *testing.B) {
	pr := prepared(b, "s344", experiment.TenDetect)
	opts := core.DefaultOptions
	opts.Seed = 1
	sd, _ := core.BuildSameDiff(pr.Matrix, opts)
	dicts := []struct {
		name string
		d    *core.Dictionary
	}{
		{"full", core.NewFull(pr.Matrix)},
		{"passfail", core.NewPassFail(pr.Matrix)},
		{"samediff", sd},
	}
	for _, e := range dicts {
		b.Run(e.name, func(b *testing.B) {
			var q diagnose.Quality
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q = diagnose.EvaluateResolution(e.d)
			}
			b.ReportMetric(q.AvgCandidates, "avg_candidates")
			b.ReportMetric(float64(q.Perfect), "perfect")
			b.ReportMetric(float64(q.MaxCandidates), "worst_case")
		})
	}
}

// BenchmarkFaultSim measures raw PPSFP full-response fault-simulation
// throughput: rebuilding the response matrix exercises good simulation,
// event-driven fault propagation and response deduplication together.
func BenchmarkFaultSim(b *testing.B) {
	for _, name := range []string{"s298", "s1196"} {
		b.Run(name, func(b *testing.B) {
			pr := prepared(b, name, experiment.TenDetect)
			view := netlist.NewScanView(pr.Circuit)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp.Build(view, pr.Faults, pr.Tests)
			}
			b.ReportMetric(float64(pr.Matrix.N)*float64(pr.Matrix.K)/float64(1e6), "Mfault_tests")
		})
	}
}

// BenchmarkTwoPhaseDiagnosis (DESIGN.md D1 companion) measures the
// two-stage flow the paper cites as the consumer of compact dictionaries:
// dictionary lookup narrows the candidates, then only those are
// fault-simulated. The simulated-candidates metric shows the work the
// same/different dictionary saves relative to pass/fail.
func BenchmarkTwoPhaseDiagnosis(b *testing.B) {
	pr := prepared(b, "s298", experiment.TenDetect)
	opts := core.DefaultOptions
	opts.Seed = 1
	sd, _ := core.BuildSameDiff(pr.Matrix, opts)
	for _, e := range []struct {
		name string
		d    *core.Dictionary
	}{
		{"passfail", core.NewPassFail(pr.Matrix)},
		{"samediff", sd},
	} {
		b.Run(e.name, func(b *testing.B) {
			compiled, err := e.d.Compile()
			if err != nil {
				b.Fatal(err)
			}
			tp, err := diagnose.NewTwoPhase(compiled, pr.Faults, pr.Circuit, pr.Tests)
			if err != nil {
				b.Fatal(err)
			}
			// Precompute observed responses for a rotating set of defects.
			var observations [][]logic.BitVec
			for fi := 0; fi < len(pr.Faults); fi += 37 {
				obs, err := diagnose.ObservedResponses(pr.Circuit, []fault.Fault{pr.Faults[fi]}, pr.Tests)
				if err != nil {
					b.Fatal(err)
				}
				observations = append(observations, obs)
			}
			simulated := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := tp.Diagnose(observations[i%len(observations)])
				if err != nil {
					b.Fatal(err)
				}
				simulated += res.Simulated
			}
			b.ReportMetric(float64(simulated)/float64(b.N), "simulated_candidates")
		})
	}
}

// BenchmarkExtensionTestCompaction (DESIGN.md A5) measures how many tests
// of each test-set type carry no diagnostic information for the built
// same/different dictionary, and the size saved by dropping them.
func BenchmarkExtensionTestCompaction(b *testing.B) {
	for _, tt := range []experiment.TestSetType{experiment.Diagnostic, experiment.TenDetect} {
		b.Run(string(tt), func(b *testing.B) {
			pr := prepared(b, "s344", tt)
			opts := core.DefaultOptions
			opts.Seed = 1
			sd, _ := core.BuildSameDiff(pr.Matrix, opts)
			var kept int
			var before, after int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keep := core.CompactTests(pr.Matrix, sd.Baselines)
				rm, rb := core.RestrictTests(pr.Matrix, sd.Baselines, keep)
				rd := &core.Dictionary{Kind: core.SameDiff, M: rm, Baselines: rb}
				kept = rm.K
				before, after = sd.NominalSizeBits(), rd.NominalSizeBits()
				if rd.Indistinguished() != sd.Indistinguished() {
					b.Fatal("compaction changed resolution")
				}
			}
			b.ReportMetric(float64(pr.Matrix.K), "tests_before")
			b.ReportMetric(float64(kept), "tests_after")
			b.ReportMetric(float64(after)/float64(before), "size_ratio")
		})
	}
}

// BenchmarkExtensionOutputCompaction (DESIGN.md A6) sweeps a spatial
// response compactor's width: the paper's remark that compaction shrinks m
// (and so the baseline overhead), traded against aliasing-induced
// resolution loss.
func BenchmarkExtensionOutputCompaction(b *testing.B) {
	pr := prepared(b, "s344", experiment.TenDetect)
	widths := []int{0, 32, 16, 8, 4} // 0 = uncompacted reference
	for _, w := range widths {
		name := fmt.Sprintf("m=%d", w)
		if w == 0 {
			name = "uncompacted"
		}
		b.Run(name, func(b *testing.B) {
			var ind int64
			var size int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := pr.Matrix
				if w > 0 {
					m = m.CompactOutputs(w, 11)
				}
				opts := core.DefaultOptions
				opts.Seed = 1
				opts.Calls1 = 5
				opts.MaxRestarts = 10
				sd, st := core.BuildSameDiff(m, opts)
				ind, size = st.IndistFinal, sd.NominalSizeBits()
			}
			b.ReportMetric(float64(ind), "ind_sd")
			b.ReportMetric(float64(size), "size_bits")
		})
	}
}

// benchWorkerCounts returns the pool sizes the BenchmarkParallel* family
// compares: the sequential path, the CI reference of four workers, and
// the machine's real CPU count when it differs from both. `make bench`
// runs exactly this family and renders the output as BENCH_parallel.json
// (format in EXPERIMENTS.md).
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkParallelBuild measures the parallel restart search (DESIGN.md
// §9) against its workers=1 sequential path. The determinism regression
// pins the outputs byte-identical across counts, so the ind_* metrics
// must agree between sub-benchmarks and only ns/op may move.
func BenchmarkParallelBuild(b *testing.B) {
	circuits := []string{"s526"}
	if !testing.Short() {
		circuits = append(circuits, "s1196")
	}
	for _, name := range circuits {
		pr := prepared(b, name, experiment.Diagnostic)
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				opts := core.DefaultOptions
				opts.Seed = 1
				opts.Workers = workers
				var st core.BuildStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st = core.BuildSameDiff(pr.Matrix, opts)
				}
				b.ReportMetric(float64(st.IndistFinal), "ind_sd")
				b.ReportMetric(float64(st.IndistProc1), "ind_sd_rand")
				b.ReportMetric(float64(st.Restarts), "restarts")
				b.ReportMetric(float64(st.CandidateEvals), "cand_evals")
			})
		}
	}
}

// BenchmarkParallelFaultSim measures the sharded full-response capture
// (per-worker simulator forks plus concurrent per-test assembly) against
// the sequential sweep on the same circuits as BenchmarkFaultSim.
func BenchmarkParallelFaultSim(b *testing.B) {
	circuits := []string{"s298"}
	if !testing.Short() {
		circuits = append(circuits, "s1196")
	}
	for _, name := range circuits {
		pr := prepared(b, name, experiment.TenDetect)
		view := netlist.NewScanView(pr.Circuit)
		for _, workers := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := resp.BuildWorkersCtx(context.Background(), workers, view, pr.Faults, pr.Tests); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(pr.Matrix.N)*float64(pr.Matrix.K)/1e6, "Mfault_tests")
			})
		}
	}
}

// BenchmarkParallelSweep measures row-level parallelism in the Table-6
// sweep. Rows are whole independent pipelines (synthesis through
// dictionary), so they are the coarsest-grained and best-scaling unit of
// work the pipeline offers.
func BenchmarkParallelSweep(b *testing.B) {
	var specs []experiment.RowSpec
	for _, name := range []string{"s27", "s208", "s298"} {
		specs = append(specs, experiment.RowSpec{
			Circuit: name,
			TType:   experiment.Diagnostic,
			Config:  experiment.Config{Seed: 1, Workers: 1},
		})
	}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var ind int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ind = 0
				for _, res := range experiment.RunSweepCtx(context.Background(), workers, specs, nil) {
					if res.Err != nil {
						b.Fatalf("%s/%s: %v", res.Spec.Circuit, res.Spec.TType, res.Err)
					}
					ind += res.Row.IndSDFinal
				}
			}
			b.ReportMetric(float64(len(specs)), "rows")
			b.ReportMetric(float64(ind), "ind_sd_total")
		})
	}
}

// BenchmarkDictionaryLandscape (DESIGN.md A7) places every dictionary
// flavour on the size/resolution plane for one circuit and test set: the
// compressed baselines from the literature (first-failing-test,
// detection-count, failing-outputs, pass/fail+first), pass/fail, the
// paper's same/different, and the full dictionary.
func BenchmarkDictionaryLandscape(b *testing.B) {
	pr := prepared(b, "s526", experiment.Diagnostic)
	m := pr.Matrix
	opts := core.DefaultOptions
	opts.Seed = 1
	sd, _ := core.BuildSameDiff(m, opts)
	entries := []struct {
		name string
		run  func() (int64, int64) // size bits, indistinguished pairs
	}{
		{"first-failing-test", func() (int64, int64) {
			a := core.FirstFailingTest(m)
			return a.SizeBits, a.Indistinguished()
		}},
		{"detection-count", func() (int64, int64) {
			a := core.DetectionCount(m)
			return a.SizeBits, a.Indistinguished()
		}},
		{"failing-outputs", func() (int64, int64) {
			a := core.FailingOutputs(m)
			return a.SizeBits, a.Indistinguished()
		}},
		{"passfail", func() (int64, int64) {
			d := core.NewPassFail(m)
			return d.SizeBits(), d.Indistinguished()
		}},
		{"passfail+first", func() (int64, int64) {
			a := core.PassFailPlusFirst(m)
			return a.SizeBits, a.Indistinguished()
		}},
		{"samediff", func() (int64, int64) {
			return sd.NominalSizeBits(), sd.Indistinguished()
		}},
		{"full", func() (int64, int64) {
			d := core.NewFull(m)
			return d.SizeBits(), d.Indistinguished()
		}},
	}
	for _, e := range entries {
		b.Run(e.name, func(b *testing.B) {
			var size, ind int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				size, ind = e.run()
			}
			b.ReportMetric(float64(size), "size_bits")
			b.ReportMetric(float64(ind), "ind_pairs")
		})
	}
}
