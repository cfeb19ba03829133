package atpg

import (
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// c17Vector expands a 5-bit integer into a c17 input vector.
func c17Vector(v int) pattern.Vector {
	vec := make(pattern.Vector, 5)
	for i := range vec {
		vec[i] = logic.FromBit(uint64(v >> uint(i) & 1))
	}
	return vec
}

// TestSATDistinguishMatchesExhaustive: on c17, the SAT-based distinguisher
// (miter output = 1) must classify every fault pair exactly as exhaustive
// simulation does — distinguishable pairs get a verified test, equivalent
// pairs are proven UNSAT.
func TestSATDistinguishMatchesExhaustive(t *testing.T) {
	c := gen.C17()
	col := fault.Collapse(c)
	r := rand.New(rand.NewSource(3))

	equivalent := func(a, b fault.Fault) bool {
		for v := 0; v < 32; v++ {
			if Distinguishes(c, a, b, c17Vector(v)) {
				return false
			}
		}
		return true
	}

	for i := 0; i < len(col.Faults); i++ {
		for j := i + 1; j < len(col.Faults); j++ {
			fa, fb := col.Faults[i], col.Faults[j]
			m, err := BuildMiter(c, fa, fb)
			if err != nil {
				t.Fatal(err)
			}
			vec, status, _, err := SolveOutputOne(m, m.POs[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			truthEquiv := equivalent(fa, fb)
			switch status {
			case Success:
				if truthEquiv {
					t.Fatalf("SAT found a test for equivalent pair (%s, %s)", fa.Name(c), fb.Name(c))
				}
				v := vec.Clone()
				v.RandomFill(r)
				if !Distinguishes(c, fa, fb, v) {
					t.Fatalf("SAT test %s does not distinguish (%s, %s)", v, fa.Name(c), fb.Name(c))
				}
			case Untestable:
				if !truthEquiv {
					t.Fatalf("SAT proved equivalent a distinguishable pair (%s, %s)", fa.Name(c), fb.Name(c))
				}
			default:
				t.Fatalf("SAT ran out of budget on c17 pair (%s, %s)", fa.Name(c), fb.Name(c))
			}
		}
	}
}

// TestSATAgreesWithPodemOnDetection: SAT detection miters must agree with
// PODEM wherever PODEM is definitive, must produce verified tests on
// Success, and must answer definitively at least as often as PODEM.
func TestSATAgreesWithPodemOnDetection(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(4))
	col := fault.Collapse(comb)
	e := NewEngine(comb)
	e.BacktrackLimit = 200
	r := rand.New(rand.NewSource(5))
	satDefinitive, podemDefinitive := 0, 0
	for _, f := range col.Faults {
		m, err := BuildDetectionMiter(comb, f)
		if err != nil {
			t.Fatal(err)
		}
		vec, status, _, err := SolveOutputOne(m, m.POs[0], 50000)
		if err != nil {
			t.Fatal(err)
		}
		if status != Aborted {
			satDefinitive++
		}
		cube, pstatus := e.Generate(f)
		if pstatus != Aborted {
			podemDefinitive++
		}
		switch status {
		case Success:
			v := vec.Clone()
			v.RandomFill(r)
			if !VectorDetects(comb, f, v) {
				t.Fatalf("SAT test for %s does not detect it", f.Name(comb))
			}
			if pstatus == Untestable {
				t.Fatalf("PODEM says untestable but SAT found a test for %s", f.Name(comb))
			}
		case Untestable:
			if pstatus == Success {
				v := cube.Clone()
				v.RandomFill(r)
				if VectorDetects(comb, f, v) {
					t.Fatalf("SAT says untestable but PODEM's test detects %s", f.Name(comb))
				}
			}
		}
	}
	if satDefinitive < podemDefinitive {
		t.Errorf("SAT definitive on %d faults, PODEM on %d — SAT should dominate",
			satDefinitive, podemDefinitive)
	}
	t.Logf("definitive answers: SAT %d, PODEM %d (of %d faults)",
		satDefinitive, podemDefinitive, len(col.Faults))
}

// TestSolveOutputOneRejectsSequential covers the guard.
func TestSolveOutputOneRejectsSequential(t *testing.T) {
	seq := gen.Profiles["s27"].MustGenerate(1)
	if _, _, _, err := SolveOutputOne(seq, seq.POs[0], 0); err == nil {
		t.Fatal("sequential circuit accepted")
	}
}

// TestSATXnorEncoding checks the XNOR chain encoding directly: the model
// returned for "XNOR output = 1" must evaluate to 1, and forcing the
// complement must flip it.
func TestSATXnorEncoding(t *testing.T) {
	b := netlist.NewBuilder("xn")
	a := b.Input("a")
	bb := b.Input("b")
	cc := b.Input("c")
	x := b.Gate(netlist.Xnor, "x", a, bb, cc)
	inv := b.Gate(netlist.Not, "nx", x)
	b.Output(x)
	b.Output(inv)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	view := netlist.NewScanView(c)
	for _, target := range []int32{x, inv} {
		vec, status, _, err := SolveOutputOne(c, target, 0)
		if err != nil || status != Success {
			t.Fatalf("target %d: status %v err %v", target, status, err)
		}
		full := vec.Clone()
		full.RandomFill(rand.New(rand.NewSource(1)))
		vals := sim.EvalTernary(view, full)
		if vals[target] != logic.One {
			t.Fatalf("SAT model does not drive gate %d to 1", target)
		}
	}
}

// TestSATConstantCone: a target provably constant 0 must come back
// Untestable.
func TestSATConstantCone(t *testing.T) {
	b := netlist.NewBuilder("k")
	a := b.Input("a")
	n := b.Gate(netlist.Not, "n", a)
	y := b.Gate(netlist.And, "y", a, n) // constant 0
	b.Output(y)
	c, _ := b.Build()
	_, status, _, err := SolveOutputOne(c, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status != Untestable {
		t.Fatalf("constant-0 target reported %v, want untestable", status)
	}
}
