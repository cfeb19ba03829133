package diagnose

import (
	"math/rand"
	"testing"

	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
)

// TestTwoPhaseRecoversFullResolution: phase 2 must narrow the dictionary's
// candidate set down to the injected fault's FULL-dictionary group, i.e.
// the two-phase flow achieves full-dictionary resolution with a compact
// dictionary.
func TestTwoPhaseRecoversFullResolution(t *testing.T) {
	comb, faults, tests, m := setup(t)
	fullPart := core.NewFull(m).Partition()
	opts := core.DefaultOptions
	opts.Seed = 5
	opts.Calls1 = 3
	opts.MaxRestarts = 6
	sd, _ := core.BuildSameDiff(m, opts)

	for name, d := range map[string]*core.Dictionary{
		"pass/fail":      core.NewPassFail(m),
		"same/different": sd,
	} {
		tp := newTwoPhase(t, d, faults, comb, tests)
		r := rand.New(rand.NewSource(99))
		for trial := 0; trial < 12; trial++ {
			fi := r.Intn(len(faults))
			obs, err := ObservedResponses(comb, []fault.Fault{faults[fi]}, tests)
			if err != nil {
				t.Fatal(err)
			}
			res := runTwoPhase(t, tp, obs)
			// The injected fault must survive both phases.
			if !containsInt(res.Phase2, fi) {
				t.Fatalf("%s: injected fault %d lost (phase1 %d, phase2 %d candidates)",
					name, fi, len(res.Phase1), len(res.Phase2))
			}
			// Phase 2 equals the full-dictionary group exactly.
			wantSize := 1
			if l := fullPart.Label(fi); l != core.Isolated {
				wantSize = 0
				for i := range faults {
					if fullPart.Label(i) == l {
						wantSize++
					}
				}
			}
			if len(res.Phase2) != wantSize {
				t.Fatalf("%s: phase 2 has %d candidates, full-dictionary group has %d",
					name, len(res.Phase2), wantSize)
			}
			// Phase 1 never simulates more than the dictionary group size.
			if res.Simulated != len(res.Phase1) {
				t.Fatalf("%s: simulated %d != phase1 %d", name, res.Simulated, len(res.Phase1))
			}
		}
	}
}

// TestTwoPhaseSavesSimulation: the point of the dictionary is that phase 2
// simulates far fewer faults than an effect-cause flow would; with a
// same/different dictionary the candidate sets are never larger than with
// pass/fail.
func TestTwoPhaseSavesSimulation(t *testing.T) {
	comb, faults, tests, m := setup(t)
	opts := core.DefaultOptions
	opts.Seed = 6
	opts.Calls1 = 3
	opts.MaxRestarts = 6
	sd, _ := core.BuildSameDiff(m, opts)
	tpPF := newTwoPhase(t, core.NewPassFail(m), faults, comb, tests)
	tpSD := newTwoPhase(t, sd, faults, comb, tests)

	r := rand.New(rand.NewSource(123))
	totalPF, totalSD := 0, 0
	for trial := 0; trial < 10; trial++ {
		fi := r.Intn(len(faults))
		obs, err := ObservedResponses(comb, []fault.Fault{faults[fi]}, tests)
		if err != nil {
			t.Fatal(err)
		}
		totalPF += runTwoPhase(t, tpPF, obs).Simulated
		totalSD += runTwoPhase(t, tpSD, obs).Simulated
	}
	if totalSD > totalPF {
		t.Fatalf("same/different phase 2 simulated more faults (%d) than pass/fail (%d)",
			totalSD, totalPF)
	}
	if totalPF > 10*len(faults)/4 {
		t.Fatalf("phase 1 is not narrowing: %d simulations over 10 trials of %d faults",
			totalPF, len(faults))
	}
}

// TestTwoPhaseNonModeledDefect: with a defect that matches no row, phase 1
// falls back to nearest rows and phase 2 reports no exact match (an honest
// "not a modeled fault" outcome).
func TestTwoPhaseNonModeledDefect(t *testing.T) {
	comb, faults, tests, m := setup(t)
	tp := newTwoPhase(t, core.NewPassFail(m), faults, comb, tests)
	r := rand.New(rand.NewSource(7))
	sawEmptyPhase2 := false
	for trial := 0; trial < 6 && !sawEmptyPhase2; trial++ {
		a, b := r.Intn(len(faults)), r.Intn(len(faults))
		if a == b {
			continue
		}
		obs, err := ObservedResponses(comb, []fault.Fault{faults[a], faults[b]}, tests)
		if err != nil {
			t.Fatal(err)
		}
		res := runTwoPhase(t, tp, obs)
		if len(res.Phase1) == 0 {
			t.Fatal("phase 1 returned nothing, not even nearest rows")
		}
		if len(res.Phase2) == 0 {
			sawEmptyPhase2 = true
		}
	}
	if !sawEmptyPhase2 {
		t.Log("every double fault happened to mimic a single fault; unusual but possible")
	}
}

// TestTwoPhaseRejectsMismatchedInput: a fault list that does not fit the
// dictionary's rows, or an observation that does not fit its test count,
// is an error rather than a panic or a wrong diagnosis.
func TestTwoPhaseRejectsMismatchedInput(t *testing.T) {
	comb, faults, tests, m := setup(t)
	c := compile(t, core.NewPassFail(m))
	if _, err := NewTwoPhase(c, faults[1:], comb, tests); err == nil {
		t.Error("NewTwoPhase accepted one fault too few")
	}
	tp := newTwoPhase(t, core.NewPassFail(m), faults, comb, tests)
	obs, err := ObservedResponses(comb, []fault.Fault{faults[0]}, tests)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Diagnose(obs[1:]); err == nil {
		t.Error("Diagnose accepted one observed response too few")
	}
}

// newTwoPhase builds a two-phase diagnoser over d's compiled form.
func newTwoPhase(t *testing.T, d *core.Dictionary, faults []fault.Fault, c *netlist.Circuit, tests *pattern.Set) *TwoPhase {
	t.Helper()
	tp, err := NewTwoPhase(compile(t, d), faults, c, tests)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// runTwoPhase runs both phases on obs.
func runTwoPhase(t *testing.T, tp *TwoPhase, obs []logic.BitVec) Result {
	t.Helper()
	res, err := tp.Diagnose(obs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
