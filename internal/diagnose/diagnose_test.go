package diagnose

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sddict/internal/atpg"
	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/resp"
)

// setup builds a small diagnosis scenario: synthetic circuit, collapsed
// faults, detection test set, response matrix.
func setup(t *testing.T) (*netlist.Circuit, []fault.Fault, *pattern.Set, *resp.Matrix) {
	t.Helper()
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(12))
	col := fault.Collapse(comb)
	cfg := atpg.DefaultConfig(3)
	cfg.Seed = 21
	tests, _ := atpg.GenerateDetection(comb, col.Faults, cfg)
	m := resp.Build(netlist.NewScanView(comb), col.Faults, tests)
	return comb, col.Faults, tests, m
}

// compile returns d's deployable form, the one tester-side diagnosis
// engine.
func compile(t *testing.T, d *core.Dictionary) *core.Compiled {
	t.Helper()
	c, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// signature reduces observed responses against c's baselines.
func signature(t *testing.T, c *core.Compiled, obs []logic.BitVec) logic.BitVec {
	t.Helper()
	sig, err := c.Signature(obs)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestSelfDiagnosis: injecting each modeled fault and diagnosing must put
// the injected fault in the exact-match candidate set, for every
// dictionary kind; the candidate set must equal the fault's
// indistinguishability group.
func TestSelfDiagnosis(t *testing.T) {
	comb, faults, tests, m := setup(t)
	opts := core.DefaultOptions
	opts.Seed = 1
	opts.Calls1 = 4
	opts.MaxRestarts = 8
	sd, _ := core.BuildSameDiff(m, opts)
	dicts := map[string]*core.Dictionary{
		"pass/fail":      core.NewPassFail(m),
		"same/different": sd,
	}
	r := rand.New(rand.NewSource(2))
	for name, d := range dicts {
		c := compile(t, d)
		part := d.Partition()
		for trial := 0; trial < 15; trial++ {
			fi := r.Intn(len(faults))
			obs, err := ObservedResponses(comb, []fault.Fault{faults[fi]}, tests)
			if err != nil {
				t.Fatal(err)
			}
			cands := c.Candidates(signature(t, c, obs))
			found := false
			for _, cand := range cands {
				if cand == fi {
					found = true
				}
				// Every exact-match candidate must share the injected
				// fault's group.
				sameGroup := cand == fi ||
					(part.Label(cand) != core.Isolated && part.Label(cand) == part.Label(fi))
				if !sameGroup {
					t.Fatalf("%s: candidate %d not in group of injected fault %d", name, cand, fi)
				}
			}
			if !found {
				t.Fatalf("%s: injected fault %s not among %d candidates",
					name, faults[fi].Name(comb), len(cands))
			}
			// Group size must equal candidate count.
			want := 1
			if l := part.Label(fi); l != core.Isolated {
				want = 0
				for i := range faults {
					if part.Label(i) == l {
						want++
					}
				}
			}
			if len(cands) != want {
				t.Fatalf("%s: %d candidates, group size %d", name, len(cands), want)
			}
		}
	}
}

// TestSameDiffNarrowsCandidates: averaged over faults, the same/different
// dictionary's candidate sets must not be larger than pass/fail's
// (SeedFaultFree guarantees at least parity).
func TestSameDiffNarrowsCandidates(t *testing.T) {
	_, _, _, m := setup(t)
	opts := core.DefaultOptions
	opts.Seed = 3
	opts.Calls1 = 4
	opts.MaxRestarts = 8
	sd, _ := core.BuildSameDiff(m, opts)
	qPF := EvaluateResolution(core.NewPassFail(m))
	qSD := EvaluateResolution(sd)
	qFull := EvaluateResolution(core.NewFull(m))
	if qSD.AvgCandidates > qPF.AvgCandidates {
		t.Fatalf("s/d avg candidates %.3f worse than p/f %.3f", qSD.AvgCandidates, qPF.AvgCandidates)
	}
	if qFull.AvgCandidates > qSD.AvgCandidates {
		t.Fatalf("full avg candidates %.3f worse than s/d %.3f", qFull.AvgCandidates, qSD.AvgCandidates)
	}
	if qPF.Faults != m.N || qSD.Perfect < qPF.Perfect {
		t.Fatalf("quality bookkeeping off: %+v vs %+v", qSD, qPF)
	}
}

// TestRankNearestForNonModeledDefect: a double fault is not in the
// dictionary, but ranking must return its constituents among the top
// candidates more often than chance.
func TestRankNearestForNonModeledDefect(t *testing.T) {
	comb, faults, tests, m := setup(t)
	pf := compile(t, core.NewPassFail(m))
	r := rand.New(rand.NewSource(6))
	hits := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		a := r.Intn(len(faults))
		b := r.Intn(len(faults))
		if a == b {
			b = (b + 1) % len(faults)
		}
		obs, err := ObservedResponses(comb, []fault.Fault{faults[a], faults[b]}, tests)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range pf.Rank(signature(t, pf, obs), 10) {
			if c.Fault == a || c.Fault == b {
				hits++
				break
			}
		}
	}
	if hits < trials/2 {
		t.Errorf("double-fault diagnosis found a constituent in only %d/%d trials", hits, trials)
	}
}

// TestSignatureAgainstDictionaryRows: the signature computed from simulated
// observed responses of fault i must equal row i of the dictionary — the
// deployment-side and construction-side signatures are the same function.
func TestSignatureAgainstDictionaryRows(t *testing.T) {
	comb, faults, tests, m := setup(t)
	opts := core.DefaultOptions
	opts.Seed = 9
	opts.Calls1 = 3
	opts.MaxRestarts = 5
	sd, _ := core.BuildSameDiff(m, opts)
	c := compile(t, sd)
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		fi := r.Intn(len(faults))
		obs, err := ObservedResponses(comb, []fault.Fault{faults[fi]}, tests)
		if err != nil {
			t.Fatal(err)
		}
		sig := signature(t, c, obs)
		if !sig.Equal(sd.Row(fi)) {
			t.Fatalf("signature of injected fault %d differs from its dictionary row", fi)
		}
	}
}

// TestEvaluateResolutionBruteForce pins EvaluateResolution's closed-form
// accounting against a brute-force recount from the partition: every
// fault's candidate-set size is the size of its indistinguishability
// group (1 when isolated), so Perfect, MaxCandidates and AvgCandidates
// all follow from the per-fault group sizes directly.
func TestEvaluateResolutionBruteForce(t *testing.T) {
	_, _, _, m := setup(t)
	opts := core.DefaultOptions
	opts.Seed = 3
	opts.Calls1 = 3
	opts.MaxRestarts = 5
	sd, _ := core.BuildSameDiff(m, opts)
	for name, d := range map[string]*core.Dictionary{
		"full":           core.NewFull(m),
		"pass/fail":      core.NewPassFail(m),
		"same/different": sd,
	} {
		q := EvaluateResolution(d)
		p := d.Partition()
		if q.Faults != p.Len() {
			t.Fatalf("%s: Faults = %d, want %d", name, q.Faults, p.Len())
		}
		groupSize := map[int32]int{}
		for i := 0; i < p.Len(); i++ {
			if l := p.Label(i); l != core.Isolated {
				groupSize[l]++
			}
		}
		perfect, maxC, sum := 0, 0, 0
		for i := 0; i < p.Len(); i++ {
			size := 1
			if l := p.Label(i); l != core.Isolated {
				size = groupSize[l]
			}
			if size == 1 {
				perfect++
			}
			if size > maxC {
				maxC = size
			}
			sum += size
		}
		if q.Perfect != perfect {
			t.Errorf("%s: Perfect = %d, brute force %d", name, q.Perfect, perfect)
		}
		if q.MaxCandidates != maxC {
			t.Errorf("%s: MaxCandidates = %d, brute force %d", name, q.MaxCandidates, maxC)
		}
		want := float64(sum) / float64(p.Len())
		if diff := q.AvgCandidates - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: AvgCandidates = %v, brute force %v", name, q.AvgCandidates, want)
		}
	}
}

// TestObservedResponsesWidthMismatch: a test set of the wrong width must
// produce the enriched, matchable width error rather than a bare string.
func TestObservedResponsesWidthMismatch(t *testing.T) {
	comb, faults, tests, _ := setup(t)
	bad := pattern.NewSet(tests.Width + 1)
	_, err := ObservedResponses(comb, []fault.Fault{faults[0]}, bad)
	if err == nil {
		t.Fatal("mismatched width accepted")
	}
	if !errors.Is(err, ErrWidthMismatch) {
		t.Fatalf("error %v does not wrap ErrWidthMismatch", err)
	}
	msg := err.Error()
	for _, want := range []string{comb.Name, faults[0].Name(comb),
		fmt.Sprintf("%d", tests.Width), fmt.Sprintf("%d", tests.Width+1)} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
