package atpg

import (
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
)

// TestIncrementalImplyMatchesWholeCircuit checks the event-driven
// implication against the whole-circuit pass after every decision, flip
// and unwind: the installed hook snapshots val, recomputes every gate with
// implyAll and requires the two to agree. It covers c17 and synthetic
// profiles, stem and branch faults, the deterministic and the randomized
// engine, and the detection and distinguishing miters.
func TestIncrementalImplyMatchesWholeCircuit(t *testing.T) {
	var checks, flips, unwinds int
	var snapshot []logic.V5
	// The previous call's PI decisions within the same search, to count
	// the flips and unwinds the corpus exercised.
	var prevEng *Engine
	var prevTarget fault.Fault
	var prevPI []logic.Value
	implyHook = func(e *Engine) {
		checks++
		if e == prevEng && e.target == prevTarget {
			for g, v := range prevPI {
				switch {
				case !v.Known():
				case !e.piVal[g].Known():
					unwinds++
				case e.piVal[g] != v:
					flips++
				}
			}
		}
		prevEng, prevTarget = e, e.target
		prevPI = append(prevPI[:0], e.piVal...)
		snapshot = append(snapshot[:0], e.val...)
		e.implyAll()
		for g := range snapshot {
			if snapshot[g] != e.val[g] {
				t.Fatalf("%s, fault %s: gate %d incremental %v, whole-circuit %v",
					e.c.Name, e.target.Name(e.c), g, snapshot[g], e.val[g])
			}
		}
	}
	t.Cleanup(func() { implyHook = nil })

	circuits := []*netlist.Circuit{
		gen.C17(),
		netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(4)),
		netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2)),
	}
	var stems, branches int
	for ci, c := range circuits {
		col := fault.Collapse(c)
		for _, randomized := range []bool{false, true} {
			e := NewEngine(c)
			e.BacktrackLimit = 60
			if randomized {
				e.Randomize(rand.New(rand.NewSource(int64(ci))))
			}
			for _, f := range col.Faults {
				if f.IsStem() {
					stems++
				} else {
					branches++
				}
				e.Generate(f)
			}
		}
		// Detection and distinguishing miters: the engine runs on the
		// doubled circuit, targeting the miter output.
		for i := 0; i < len(col.Faults) && i < 40; i += 3 {
			m, err := BuildDetectionMiter(c, col.Faults[i])
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(m)
			e.BacktrackLimit = 60
			e.Generate(fault.Fault{Gate: m.POs[0], Pin: fault.StemPin, Stuck: 0})
			j := (i + 5) % len(col.Faults)
			if _, _, err := Distinguish(c, col.Faults[i], col.Faults[j], 60); err != nil {
				t.Fatal(err)
			}
		}
	}
	if stems == 0 || branches == 0 || flips == 0 || unwinds == 0 {
		t.Fatalf("corpus too easy: %d stem, %d branch faults, %d flips, %d unwinds",
			stems, branches, flips, unwinds)
	}
	t.Logf("%d implications checked (%d flips, %d unwinds); %d stem, %d branch faults",
		checks, flips, unwinds, stems, branches)
}
