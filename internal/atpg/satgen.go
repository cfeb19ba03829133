package atpg

import (
	"fmt"

	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sat"
)

// SolveOutputOne finds, via SAT, an input vector driving the given gate of
// a combinational circuit to 1, or proves none exists. It Tseitin-encodes
// the gate's fanin cone and returns the vector over the circuit's scan
// inputs (inputs outside the cone stay X), plus the conflicts the solver
// spent, a deterministic measure of the effort. The conflict budget bounds
// the effort; 0 uses the solver default.
//
// This is the complete decision procedure behind the SAT fallback for
// pair distinguishing: structural PODEM aborts become definitive answers.
func SolveOutputOne(c *netlist.Circuit, target int32, conflictBudget int64) (pattern.Vector, Status, int64, error) {
	if len(c.DFFs) != 0 {
		return nil, Aborted, 0, fmt.Errorf("atpg: SAT solving requires a combinational circuit")
	}
	s, varOf := encodeOutputOne(c, target)
	res := s.Solve(conflictBudget)
	_, conflicts := s.Stats()
	switch res {
	case sat.Unsat:
		return nil, Untestable, conflicts, nil
	case sat.Unknown:
		return nil, Aborted, conflicts, nil
	}
	view := netlist.NewScanView(c)
	vec := make(pattern.Vector, view.NumInputs())
	for slot, g := range view.Inputs {
		if varOf[g] < 0 {
			vec[slot] = logic.X
			continue
		}
		vec[slot] = logic.FromBit(boolToBit(s.Value(varOf[g])))
	}
	return vec, Success, conflicts, nil
}

// encodeOutputOne Tseitin-encodes the fanin cone of target with target
// asserted to 1. It returns the solver and each gate's variable (-1
// outside the cone).
func encodeOutputOne(c *netlist.Circuit, target int32) (*sat.Solver, []int) {
	// Collect the fanin cone of the target.
	inCone := make([]bool, len(c.Gates))
	stack := []int32{target}
	inCone[target] = true
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range c.Gates[g].Fanin {
			if !inCone[d] {
				inCone[d] = true
				stack = append(stack, d)
			}
		}
	}

	s := sat.NewSolver(0)
	varOf := make([]int, len(c.Gates))
	for i := range varOf {
		varOf[i] = -1
	}
	for i := range c.Gates {
		if inCone[i] {
			varOf[i] = s.AddVar()
		}
	}

	lit := func(g int32, neg bool) sat.Lit { return sat.MkLit(varOf[g], neg) }

	for i := range c.Gates {
		if !inCone[i] {
			continue
		}
		g := int32(i)
		gate := &c.Gates[i]
		out := lit(g, false)
		nout := lit(g, true)
		switch gate.Type {
		case netlist.Input:
			// free variable
		case netlist.Const0:
			s.AddClause(nout)
		case netlist.Const1:
			s.AddClause(out)
		case netlist.Buf, netlist.Not:
			d := gate.Fanin[0]
			inv := gate.Type == netlist.Not
			// out <-> (inv ? ¬d : d)
			s.AddClause(nout, lit(d, inv))
			s.AddClause(out, lit(d, !inv))
		case netlist.And, netlist.Nand:
			inv := gate.Type == netlist.Nand
			o, no := out, nout
			if inv {
				o, no = nout, out
			}
			// o -> every input; (¬in_i for some i) -> ¬o
			all := []sat.Lit{o}
			for _, d := range gate.Fanin {
				s.AddClause(no, lit(d, false))
				all = append(all, lit(d, true))
			}
			s.AddClause(all...)
		case netlist.Or, netlist.Nor:
			inv := gate.Type == netlist.Nor
			o, no := out, nout
			if inv {
				o, no = nout, out
			}
			all := []sat.Lit{no}
			for _, d := range gate.Fanin {
				s.AddClause(o, lit(d, true))
				all = append(all, lit(d, false))
			}
			s.AddClause(all...)
		case netlist.Xor, netlist.Xnor:
			// Chain pairwise XOR through auxiliary variables; for XNOR the
			// final link is an XNOR, since ¬(x1⊕…⊕xn) = XNOR(x1⊕…⊕xn-1, xn).
			cur := varOf[gate.Fanin[0]]
			for k := 1; k < len(gate.Fanin); k++ {
				last := k == len(gate.Fanin)-1
				next := varOf[g]
				if !last {
					next = s.AddVar()
				}
				if last && gate.Type == netlist.Xnor {
					encodeXnor(s, next, cur, varOf[gate.Fanin[k]])
				} else {
					encodeXor(s, next, cur, varOf[gate.Fanin[k]])
				}
				cur = next
			}
		}
	}

	s.AddClause(lit(target, false))
	return s, varOf
}

func boolToBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// encodeXor adds clauses for o <-> a XOR b.
func encodeXor(s *sat.Solver, o, a, b int) {
	O, A, B := sat.MkLit(o, false), sat.MkLit(a, false), sat.MkLit(b, false)
	NO, NA, NB := O.Not(), A.Not(), B.Not()
	s.AddClause(NO, A, B)
	s.AddClause(NO, NA, NB)
	s.AddClause(O, NA, B)
	s.AddClause(O, A, NB)
}

// encodeXnor adds clauses for o <-> (a == b).
func encodeXnor(s *sat.Solver, o, a, b int) {
	O, A, B := sat.MkLit(o, false), sat.MkLit(a, false), sat.MkLit(b, false)
	NO, NA, NB := O.Not(), A.Not(), B.Not()
	s.AddClause(NO, A, NB)
	s.AddClause(NO, NA, B)
	s.AddClause(O, A, B)
	s.AddClause(O, NA, NB)
}
