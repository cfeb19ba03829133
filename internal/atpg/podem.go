// Package atpg generates test sets: a PODEM engine for single stuck-at
// faults, random-pattern generation with fault-simulation screening,
// n-detection test sets (each fault detected by at least n different
// tests), and diagnostic test sets that distinguish fault pairs through
// structural miters. All generation runs on the combinational full-scan
// form of a circuit (netlist.Combinationalize).
package atpg

import (
	"context"
	"fmt"
	"math/rand"

	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
)

// Status is the outcome of one PODEM run.
type Status uint8

// PODEM outcomes.
const (
	// Success: a test cube detecting the fault was found.
	Success Status = iota
	// Untestable: the decision space was exhausted; the fault is redundant.
	Untestable
	// Aborted: the backtrack limit was hit before a decision.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Success:
		return "success"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Engine is a PODEM test generator over one combinational circuit. It is
// reusable across faults but not safe for concurrent use.
type Engine struct {
	// BacktrackLimit bounds the number of backtracks per fault before the
	// run is abandoned as Aborted.
	BacktrackLimit int

	c    *netlist.Circuit
	view *netlist.ScanView
	val  []logic.V5
	// piVal holds the current PI decisions (ternary); val is derived from
	// it by implication.
	piVal []logic.Value
	slot  []int32 // gate -> scan input slot, or -1
	rng   *rand.Rand

	target fault.Fault
	isPO   []bool
	scoap  *netlist.SCOAP
	ctx    context.Context // optional; cancels Generate with Aborted

	// Event-driven implication: gates whose value must be recomputed,
	// bucketed by Circuit.Level so each is evaluated once, after all its
	// fanins have settled.
	buckets [][]int32
	queued  []bool

	// scratch
	in      []logic.V5
	visited []uint32
	visitID uint32
}

// implyHook, when non-nil, runs after every incremental implication. Tests
// install it to check val against the whole-circuit pass.
var implyHook func(*Engine)

// NewEngine returns an engine for the combinational circuit c. The circuit
// must contain no flip-flops (use netlist.Combinationalize first).
func NewEngine(c *netlist.Circuit) *Engine {
	if len(c.DFFs) != 0 {
		panic("atpg: engine requires a combinational circuit; call netlist.Combinationalize")
	}
	maxFanin := 0
	for i := range c.Gates {
		if n := len(c.Gates[i].Fanin); n > maxFanin {
			maxFanin = n
		}
	}
	e := &Engine{
		BacktrackLimit: 100,
		c:              c,
		view:           netlist.NewScanView(c),
		val:            make([]logic.V5, len(c.Gates)),
		piVal:          make([]logic.Value, len(c.Gates)),
		slot:           make([]int32, len(c.Gates)),
		in:             make([]logic.V5, maxFanin),
		visited:        make([]uint32, len(c.Gates)),
		buckets:        make([][]int32, c.MaxLevel()+1),
		queued:         make([]bool, len(c.Gates)),
	}
	for i := range e.slot {
		e.slot[i] = -1
	}
	for s, g := range e.view.Inputs {
		e.slot[g] = int32(s)
	}
	e.isPO = make([]bool, len(c.Gates))
	for _, o := range c.POs {
		e.isPO[o] = true
	}
	e.scoap = netlist.ComputeSCOAP(c)
	return e
}

// Randomize installs a random source used to diversify backtrace and
// D-frontier choices, so repeated runs on the same fault yield different
// cubes. A nil source restores deterministic behaviour.
func (e *Engine) Randomize(r *rand.Rand) { e.rng = r }

// SetContext installs a context checked once per decision of the PODEM
// search loop; when it is cancelled or past its deadline, Generate gives up
// on the current fault with Aborted. A nil context (the default) makes
// runs uninterruptible.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// Generate attempts to build a test cube for fault f. On Success the
// returned vector has a ternary value per scan input; unassigned inputs are
// X and may be filled freely without losing detection.
func (e *Engine) Generate(f fault.Fault) (pattern.Vector, Status) {
	e.target = f
	for i := range e.piVal {
		e.piVal[i] = logic.X
	}
	e.implyAll()

	type decision struct {
		gate    int32
		flipped bool
	}
	var stack []decision
	backtracks := 0

	for {
		if e.ctx != nil && e.ctx.Err() != nil {
			return nil, Aborted
		}
		if e.detected() {
			cube := make(pattern.Vector, e.view.NumInputs())
			for s, g := range e.view.Inputs {
				cube[s] = e.piVal[g]
			}
			return cube, Success
		}
		objGate, objVal, feasible := e.objective()
		if feasible {
			pi, v := e.backtrace(objGate, objVal)
			// Backtrace can dead-end on an already-assigned input or a
			// constant; treat that like an infeasible state.
			if e.c.Gates[pi].Type == netlist.Input && !e.piVal[pi].Known() {
				e.setPI(pi, v)
				e.imply()
				stack = append(stack, decision{gate: pi})
				continue
			}
		}
		// Dead end: flip the most recent unflipped decision; fully tried
		// decisions unwind.
		for {
			if len(stack) == 0 {
				return nil, Untestable
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				backtracks++
				if backtracks > e.BacktrackLimit {
					return nil, Aborted
				}
				top.flipped = true
				e.setPI(top.gate, e.piVal[top.gate].Not())
				break
			}
			e.setPI(top.gate, logic.X)
			stack = stack[:len(stack)-1]
		}
		e.imply()
	}
}

// implyAll recomputes the five-valued value of every gate from the
// current PI assignment, injecting the target fault, and drops any events
// a previous search left pending. Generate runs it once per fault;
// decisions then update val incrementally through imply.
func (e *Engine) implyAll() {
	for l, b := range e.buckets {
		for _, g := range b {
			e.queued[g] = false
		}
		e.buckets[l] = b[:0]
	}
	for _, g := range e.c.Order() {
		e.val[g] = e.evalGate(g)
	}
}

// setPI assigns a PI decision and schedules the input for re-evaluation
// by the next imply.
func (e *Engine) setPI(pi int32, v logic.Value) {
	e.piVal[pi] = v
	e.schedule(pi)
}

func (e *Engine) schedule(g int32) {
	if !e.queued[g] {
		e.queued[g] = true
		l := e.c.Level(g)
		e.buckets[l] = append(e.buckets[l], g)
	}
}

// imply brings val up to date with the PI decisions made since the last
// implication: scheduled gates are re-evaluated level by level, and only a
// gate whose value changed schedules its fanout. Every fanout sits on a
// higher level, so each gate is evaluated at most once, after its fanins,
// and val ends exactly as implyAll would leave it.
func (e *Engine) imply() {
	for l := range e.buckets {
		for i := 0; i < len(e.buckets[l]); i++ {
			g := e.buckets[l][i]
			e.queued[g] = false
			if v := e.evalGate(g); v != e.val[g] {
				e.val[g] = v
				for _, s := range e.c.Fanout(g) {
					e.schedule(s)
				}
			}
		}
		e.buckets[l] = e.buckets[l][:0]
	}
	if implyHook != nil {
		implyHook(e)
	}
}

// evalGate computes gate g's five-valued value from its fanins' current
// values, injecting the target fault.
func (e *Engine) evalGate(g int32) logic.V5 {
	f := e.target
	stuckFaulty := logic.FromBit(uint64(f.Stuck))
	gate := &e.c.Gates[g]
	var v logic.V5
	switch gate.Type {
	case netlist.Input:
		v = logic.FromPair(e.piVal[g], e.piVal[g])
	case netlist.Const0:
		v = logic.Z5
	case netlist.Const1:
		v = logic.O5
	default:
		in := e.in[:len(gate.Fanin)]
		for pin, d := range gate.Fanin {
			pv := e.val[d]
			if !f.IsStem() && f.Gate == g && int32(pin) == f.Pin {
				pv = logic.FromPair(pv.Good(), stuckFaulty)
			}
			in[pin] = pv
		}
		v = eval5(gate.Type, in)
	}
	if f.IsStem() && f.Gate == g {
		v = logic.FromPair(v.Good(), stuckFaulty)
	}
	return v
}

// eval5 evaluates one gate in the five-valued calculus.
func eval5(t netlist.GateType, in []logic.V5) logic.V5 {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return in[0].Not5()
	case netlist.And, netlist.Nand:
		v := logic.O5
		for _, x := range in {
			v = logic.And5(v, x)
		}
		if t == netlist.Nand {
			v = v.Not5()
		}
		return v
	case netlist.Or, netlist.Nor:
		v := logic.Z5
		for _, x := range in {
			v = logic.Or5(v, x)
		}
		if t == netlist.Nor {
			v = v.Not5()
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := logic.Z5
		for _, x := range in {
			v = logic.Xor5(v, x)
		}
		if t == netlist.Xnor {
			v = v.Not5()
		}
		return v
	}
	panic(fmt.Sprintf("atpg: eval5 of %s", t))
}

// detected reports whether a fault effect has reached an output.
func (e *Engine) detected() bool {
	for _, g := range e.view.Outputs {
		if e.val[g].IsD() {
			return true
		}
	}
	return false
}

// faultSiteGoodValue returns the good-machine value of the faulty line (for
// branch faults, the driver's value).
func (e *Engine) faultSiteGoodValue() logic.Value {
	if e.target.IsStem() {
		return e.val[e.target.Gate].Good()
	}
	d := e.c.Gates[e.target.Gate].Fanin[e.target.Pin]
	return e.val[d].Good()
}

// objective returns the next (gate, value) objective, or feasible=false if
// the current assignment can no longer lead to a test.
func (e *Engine) objective() (g int32, v logic.Value, feasible bool) {
	want := logic.FromBit(uint64(1 - e.target.Stuck))
	siteGood := e.faultSiteGoodValue()
	if siteGood == want.Not() {
		return 0, logic.X, false // fault can never be excited now
	}
	if siteGood == logic.X {
		// Excite the fault: justify ¬stuck at the fault site.
		if e.target.IsStem() {
			return e.target.Gate, want, true
		}
		return e.c.Gates[e.target.Gate].Fanin[e.target.Pin], want, true
	}
	// Fault excited; drive the D-frontier.
	frontier := e.dFrontier()
	if len(frontier) == 0 {
		return 0, logic.X, false
	}
	if !e.xPathExists(frontier) {
		return 0, logic.X, false
	}
	pick := frontier[0]
	if e.rng != nil {
		pick = frontier[e.rng.Intn(len(frontier))]
	}
	gate := &e.c.Gates[pick]
	// Objective: set an X input of the frontier gate to the gate's
	// non-controlling value (any value for XOR-family gates).
	var xins []int32
	for _, d := range gate.Fanin {
		if e.val[d] == logic.X5 {
			xins = append(xins, d)
		}
	}
	if len(xins) == 0 {
		// Cannot happen for a frontier gate, but fail safe.
		return 0, logic.X, false
	}
	choose := xins[0]
	if e.rng != nil {
		choose = xins[e.rng.Intn(len(xins))]
	}
	switch gate.Type {
	case netlist.And, netlist.Nand:
		return choose, logic.One, true
	case netlist.Or, netlist.Nor:
		return choose, logic.Zero, true
	default: // XOR/XNOR: either value lets the effect through
		return choose, logic.Zero, true
	}
}

// dFrontier returns the gates whose output is X while at least one fanin
// carries a fault effect. For a branch fault the effect first exists on the
// faulty pin itself (not on any gate output), so the faulty gate joins the
// frontier when its pin carries a D and its output is still X.
func (e *Engine) dFrontier() []int32 {
	var frontier []int32
	for i := range e.c.Gates {
		g := int32(i)
		if e.val[g] != logic.X5 || e.c.IsSource(g) {
			continue
		}
		if !e.target.IsStem() && e.target.Gate == g {
			d := e.c.Gates[i].Fanin[e.target.Pin]
			pv := logic.FromPair(e.val[d].Good(), logic.FromBit(uint64(e.target.Stuck)))
			if pv.IsD() {
				frontier = append(frontier, g)
				continue
			}
		}
		for _, d := range e.c.Gates[i].Fanin {
			if e.val[d].IsD() {
				frontier = append(frontier, g)
				break
			}
		}
	}
	return frontier
}

// xPathExists reports whether some frontier gate reaches an output through
// X-valued gates (the classic X-path check).
func (e *Engine) xPathExists(frontier []int32) bool {
	e.visitID++
	var stack []int32
	for _, g := range frontier {
		if e.visited[g] != e.visitID {
			e.visited[g] = e.visitID
			stack = append(stack, g)
		}
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.isPO[g] {
			return true
		}
		for _, s := range e.c.Fanout(g) {
			if e.visited[s] == e.visitID || e.val[s] != logic.X5 {
				continue
			}
			e.visited[s] = e.visitID
			stack = append(stack, s)
		}
	}
	return false
}

// backtrace walks an objective (gate must take value v) back to an
// unassigned primary input, returning the PI and the value to try.
func (e *Engine) backtrace(g int32, v logic.Value) (int32, logic.Value) {
	for {
		gate := &e.c.Gates[g]
		if gate.Type == netlist.Input {
			return g, v
		}
		switch gate.Type {
		case netlist.Buf:
			g = gate.Fanin[0]
		case netlist.Not:
			g, v = gate.Fanin[0], v.Not()
		case netlist.And, netlist.Nand:
			eff := v
			if gate.Type == netlist.Nand {
				eff = v.Not()
			}
			if eff == logic.One {
				// All inputs must be 1: attack the hardest-to-set-1 first.
				g, v = e.pickX(gate, logic.One, true), logic.One
			} else {
				// One 0 suffices: take the easiest-to-set-0 input.
				g, v = e.pickX(gate, logic.Zero, false), logic.Zero
			}
		case netlist.Or, netlist.Nor:
			eff := v
			if gate.Type == netlist.Nor {
				eff = v.Not()
			}
			if eff == logic.Zero {
				g, v = e.pickX(gate, logic.Zero, true), logic.Zero
			} else {
				g, v = e.pickX(gate, logic.One, false), logic.One
			}
		case netlist.Xor, netlist.Xnor:
			// Choose any X input; required value is the parity of v with
			// the known inputs (unknown co-inputs assumed 0 — they will be
			// justified by later objectives if needed).
			parity := v
			if gate.Type == netlist.Xnor {
				parity = parity.Not()
			}
			var chosen int32 = -1
			for _, d := range gate.Fanin {
				dv := e.val[d].Good()
				switch {
				case dv == logic.One:
					parity = parity.Not()
				case dv == logic.X && chosen < 0:
					chosen = d
				}
			}
			if chosen < 0 {
				// No X input left; fall back to the first fanin.
				chosen = gate.Fanin[0]
			}
			g, v = chosen, parity
		default:
			// Constants cannot be justified; stop at an arbitrary PI to
			// force a backtrack upstream.
			return g, v
		}
	}
}

// pickX chooses an X-valued fanin of the gate using SCOAP
// controllability: when hard is true (every input must take value want)
// the hardest input is attacked first, otherwise the easiest one is
// chosen. Falls back to the first fanin if none is X.
func (e *Engine) pickX(gate *netlist.Gate, want logic.Value, hard bool) int32 {
	if e.rng != nil && len(gate.Fanin) > 1 {
		// Randomized tie-break: pick uniformly among X inputs.
		var xs []int32
		for _, d := range gate.Fanin {
			if e.val[d].Good() == logic.X {
				xs = append(xs, d)
			}
		}
		if len(xs) > 0 {
			return xs[e.rng.Intn(len(xs))]
		}
		return gate.Fanin[0]
	}
	cc := func(d int32) int32 {
		if want == logic.One {
			return e.scoap.CC1[d]
		}
		return e.scoap.CC0[d]
	}
	var best int32 = -1
	var bestCost int32
	for _, d := range gate.Fanin {
		if e.val[d].Good() != logic.X {
			continue
		}
		cost := cc(d)
		if best < 0 || (hard && cost > bestCost) || (!hard && cost < bestCost) {
			best, bestCost = d, cost
		}
	}
	if best < 0 {
		return gate.Fanin[0]
	}
	return best
}
