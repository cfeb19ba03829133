package atpg

import (
	"math/rand"
	"runtime"
	"testing"

	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/resp"
	"sddict/internal/sim"
)

// countDetections independently fault-simulates the whole test set and
// returns the per-fault detection counts — the ground truth the generator's
// bookkeeping is validated against.
func countDetections(view *netlist.ScanView, faults []fault.Fault, tests *pattern.Set) []int {
	s := sim.New(view)
	counts := make([]int, len(faults))
	for _, batch := range tests.Pack() {
		b := batch
		s.Apply(&b)
		for fi, f := range faults {
			eff := s.Propagate(f)
			for p := 0; p < b.Count; p++ {
				if eff.Detect&(1<<uint(p)) != 0 {
					counts[fi]++
				}
			}
		}
	}
	return counts
}

func TestGenerateDetectionOneDetect(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(1))
	col := fault.Collapse(comb)
	cfg := DefaultConfig(1)
	cfg.Seed = 9
	cfg.Compact = true
	tests, st := GenerateDetection(comb, col.Faults, cfg)
	if tests.Len() == 0 {
		t.Fatal("empty test set")
	}
	if st.Coverage() < 0.85 {
		t.Fatalf("coverage %.2f too low", st.Coverage())
	}
	// Ground truth: stats.Detected must match independent simulation.
	counts := countDetections(netlist.NewScanView(comb), col.Faults, tests)
	det := 0
	for _, c := range counts {
		if c > 0 {
			det++
		}
	}
	if det != st.Detected {
		t.Fatalf("stats.Detected = %d, simulation says %d", st.Detected, det)
	}
	// No duplicate tests.
	seen := map[string]bool{}
	for _, v := range tests.Vecs {
		k := v.Key()
		if seen[k] {
			t.Fatalf("duplicate test %s", k)
		}
		seen[k] = true
		if !v.FullySpecified() {
			t.Fatalf("test %s not fully specified", k)
		}
	}
}

func TestGenerateDetectionTenDetect(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(1))
	col := fault.Collapse(comb)
	cfg := DefaultConfig(10)
	cfg.Seed = 10
	tests, st := GenerateDetection(comb, col.Faults, cfg)
	counts := countDetections(netlist.NewScanView(comb), col.Faults, tests)
	nDet := 0
	for _, c := range counts {
		if c >= 10 {
			nDet++
		}
	}
	if nDet != st.NDetected {
		t.Fatalf("stats.NDetected = %d, simulation says %d", st.NDetected, nDet)
	}
	if float64(nDet) < 0.8*float64(st.Detected) {
		t.Fatalf("only %d/%d detected faults reach 10 detections", nDet, st.Detected)
	}
	// A 10-detect set must be larger than a compacted 1-detect set.
	cfg1 := DefaultConfig(1)
	cfg1.Seed = 10
	cfg1.Compact = true
	tests1, _ := GenerateDetection(comb, col.Faults, cfg1)
	if tests.Len() <= tests1.Len() {
		t.Errorf("10det (%d tests) not larger than 1det (%d tests)", tests.Len(), tests1.Len())
	}
}

// TestCompactPreservesCoverage: compaction must not lose any detected
// fault.
func TestCompactPreservesCoverage(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s344"].MustGenerate(3))
	col := fault.Collapse(comb)
	view := netlist.NewScanView(comb)
	r := rand.New(rand.NewSource(33))
	tests := pattern.NewSet(view.NumInputs())
	for i := 0; i < 200; i++ {
		tests.Add(pattern.Random(r, view.NumInputs()))
	}
	before := countDetections(view, col.Faults, tests)
	compacted := Compact(view, col.Faults, tests)
	if compacted.Len() >= tests.Len() {
		t.Errorf("compaction did not shrink: %d -> %d", tests.Len(), compacted.Len())
	}
	after := countDetections(view, col.Faults, compacted)
	for fi := range col.Faults {
		if before[fi] > 0 && after[fi] == 0 {
			t.Fatalf("compaction lost fault %s", col.Faults[fi].Name(comb))
		}
	}
}

func TestGenerateDetectionMaxTests(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(1))
	col := fault.Collapse(comb)
	cfg := DefaultConfig(10)
	cfg.Seed = 4
	cfg.MaxTests = 40
	tests, _ := GenerateDetection(comb, col.Faults, cfg)
	if tests.Len() > 40 {
		t.Fatalf("MaxTests violated: %d tests", tests.Len())
	}
}

// TestGenerateDiagnosticImprovesResolution: the diagnostic extension must
// strictly reduce (or at worst keep) the number of response-identical fault
// pairs relative to the detection base, and every added test must be new.
func TestGenerateDiagnosticImprovesResolution(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(1))
	col := fault.Collapse(comb)
	cfg := DefaultConfig(1)
	cfg.Seed = 5
	cfg.Compact = true
	base, _ := GenerateDetection(comb, col.Faults, cfg)

	pairsOf := func(tests *pattern.Set) int64 {
		m, _ := pairsHelper(comb, col.Faults, tests)
		return m
	}
	basePairs := pairsOf(base)

	dcfg := DefaultDiagConfig()
	dcfg.Seed = 6
	diag, st := GenerateDiagnostic(comb, col.Faults, base, dcfg)
	if diag.Len() < base.Len() {
		t.Fatalf("diagnostic set smaller than base")
	}
	diagPairs := pairsOf(diag)
	if diagPairs > basePairs {
		t.Fatalf("diagnostic generation worsened resolution: %d -> %d", basePairs, diagPairs)
	}
	if st.AddedTests > 0 && diagPairs >= basePairs {
		t.Errorf("added %d tests but resolution unchanged (%d pairs)", st.AddedTests, diagPairs)
	}
	if st.IndistPairs != diagPairs {
		t.Fatalf("stats.IndistPairs = %d, recomputed %d", st.IndistPairs, diagPairs)
	}
	// The aborted+equivalent pairs bound the remaining groups' pair count
	// only loosely, but there must be no unmarked distinguishable pair
	// left when the generator stopped before MaxRounds.
	if st.Rounds < dcfg.MaxRounds && st.IndistPairs > st.Equivalent+st.Aborted {
		t.Logf("note: %d pairs remain with %d equivalent and %d aborted marks",
			st.IndistPairs, st.Equivalent, st.Aborted)
	}
}

// pairsHelper counts fault pairs with identical full responses under the
// test set, plus the number of distinct response groups.
func pairsHelper(c *netlist.Circuit, faults []fault.Fault, tests *pattern.Set) (int64, int) {
	m := resp.Build(netlist.NewScanView(c), faults, tests)
	p := core.NewPartition(len(faults))
	for j := 0; j < m.K; j++ {
		p.RefineByClass(m.Class[j])
	}
	return p.Pairs(), len(p.GroupSizes())
}

// TestSATCountersDeterministic: the SAT counters in GenStats and DiagStats
// sum Solver.Stats conflicts, which depend only on the circuit, faults and
// config, so two runs agree exactly whatever the scheduler does.
func TestSATCountersDeterministic(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2))
	col := fault.Collapse(comb)
	cfg := DefaultConfig(1)
	cfg.Seed = 3
	cfg.BacktrackLimit = 2 // force PODEM aborts, hence the SAT fallback
	dcfg := DefaultDiagConfig()
	dcfg.Seed = 4
	dcfg.MaxRounds = 3

	run := func(procs int) (GenStats, DiagStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		base, st := GenerateDetection(comb, col.Faults, cfg)
		_, dst := GenerateDiagnostic(comb, col.Faults, base, dcfg)
		return st, dst
	}
	st1, dst1 := run(1)
	st2, dst2 := run(4)
	if st1.SATCalls == 0 || st1.SATConflicts == 0 || dst1.SATCalls == 0 || dst1.SATConflicts == 0 {
		t.Fatalf("SAT fallback not exercised: detect %d calls/%d conflicts, diag %d calls/%d conflicts",
			st1.SATCalls, st1.SATConflicts, dst1.SATCalls, dst1.SATConflicts)
	}
	if st1 != st2 || dst1 != dst2 {
		t.Fatalf("stats differ across runs:\n%+v\n%+v\n%+v\n%+v", st1, st2, dst1, dst2)
	}
}
