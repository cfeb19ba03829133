package atpg

import (
	"fmt"
	"hash/fnv"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/sat"
)

// TestMiterSATTrajectoryPinned pins the solver's exact trajectory on the
// SAT queries test generation actually issues: the detection miter of
// every collapsed fault of a synthetic profile, and a handful of
// distinguishing miters, at the default conflict budgets. Each query
// contributes (result, conflicts, model hash) to a running digest; the
// digest and the per-result totals must match exactly, so solver
// bookkeeping changes that alter any decision are caught.
func TestMiterSATTrajectoryPinned(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2))
	col := fault.Collapse(comb)

	digest := fnv.New64a()
	var byResult [3]int
	var conflicts int64
	solve := func(m *netlist.Circuit, budget int64) {
		s, _ := encodeOutputOne(m, m.POs[0])
		res := s.Solve(budget)
		_, c := s.Stats()
		var model uint64
		if res == sat.Sat {
			h := fnv.New64a()
			for v := 0; v < s.NumVars(); v++ {
				if s.Value(v) {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			model = h.Sum64()
		}
		fmt.Fprintf(digest, "%d/%d/%x;", res, c, model)
		byResult[res]++
		conflicts += c
	}

	detBudget := DefaultConfig(1).SATConflictBudget
	for _, f := range col.Faults {
		m, err := BuildDetectionMiter(comb, f)
		if err != nil {
			t.Fatal(err)
		}
		solve(m, detBudget)
	}
	pairBudget := DefaultDiagConfig().SATConflictBudget
	for i := 0; i+7 < len(col.Faults) && i < 8*12; i += 8 {
		m, err := BuildMiter(comb, col.Faults[i], col.Faults[i+7])
		if err != nil {
			t.Fatal(err)
		}
		solve(m, pairBudget)
	}

	got := fmt.Sprintf("sat=%d unsat=%d unknown=%d conflicts=%d digest=%016x",
		byResult[sat.Sat], byResult[sat.Unsat], byResult[sat.Unknown], conflicts, digest.Sum64())
	const want = "sat=438 unsat=14 unknown=0 conflicts=49082 digest=e46187d255378eaf"
	if got != want {
		t.Errorf("miter SAT trajectory:\n got  %s\n want %s", got, want)
	}
}
