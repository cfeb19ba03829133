// Package sat implements a small conflict-driven clause-learning (CDCL)
// satisfiability solver: two-literal watching, first-UIP clause learning,
// VSIDS-style activity branching, phase saving and geometric restarts.
// The test generator uses it, through a Tseitin encoding of the circuit,
// as the complete decision procedure for the hard justification queries
// (pair distinguishing, redundancy proofs) that structural PODEM abandons.
package sat

import "sort"

// Lit is a literal: variable index v (0-based) shifted left once, with the
// low bit set for negation.
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Result is a solver outcome.
type Result uint8

// Solver outcomes.
const (
	// Sat: a satisfying assignment was found (read it with Value).
	Sat Result = iota
	// Unsat: the formula is contradictory.
	Unsat
	// Unknown: the conflict budget ran out first.
	Unknown
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

const (
	lTrue  int8 = 1
	lFalse int8 = -1
	lUndef int8 = 0
)

type clause struct {
	lits    []Lit
	learned bool
	deleted bool
}

// Solver is a CDCL SAT solver. Create with NewSolver, add clauses, then
// call Solve. Not safe for concurrent use.
type Solver struct {
	clauses []*clause
	watches [][]*clause // literal -> clauses watching it

	value  []int8  // per literal (a variable's is its positive literal's): lTrue/lFalse/lUndef
	level  []int32 // decision level of the assignment
	reason []*clause
	trail  []Lit
	lim    []int // trail indices at each decision level
	// qhead is the trail index of the next literal to propagate: every
	// literal before it has had its watch list processed. cancelUntil
	// clamps it to the surviving trail.
	qhead int

	activity []float64
	varInc   float64
	// order is a binary max-heap of variables by (activity desc, index
	// asc), the same pick as a linear scan for the most active variable.
	// Every unassigned variable is in it; assigned ones are dropped lazily
	// when decide pops them, and cancelUntil puts them back.
	order     []int32
	orderPos  []int32 // position of each variable in order, or -1
	phase     []int8  // saved phase per variable
	unsatable bool    // an empty clause was added

	// seen marks variables during analyze; toClear lists the marks to
	// reset, so one conflict costs only the variables it touched.
	seen    []bool
	toClear []int

	propagations int64
	conflicts    int64

	learnedCount int
	maxLearned   int
}

// NewSolver returns a solver over numVars variables (indices 0..numVars-1).
func NewSolver(numVars int) *Solver {
	s := &Solver{
		watches:    make([][]*clause, 2*numVars),
		value:      make([]int8, 2*numVars),
		level:      make([]int32, numVars),
		reason:     make([]*clause, numVars),
		activity:   make([]float64, numVars),
		phase:      make([]int8, numVars),
		seen:       make([]bool, numVars),
		order:      make([]int32, numVars),
		orderPos:   make([]int32, numVars),
		varInc:     1,
		maxLearned: 4000,
	}
	for i := range s.phase {
		s.phase[i] = lFalse
		// Equal activities order by index, so 0..n-1 is already a heap.
		s.order[i] = int32(i)
		s.orderPos[i] = int32(i)
	}
	return s
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.value) / 2 }

// AddVar appends a fresh variable and returns its index.
func (s *Solver) AddVar() int {
	v := s.NumVars()
	s.value = append(s.value, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lFalse)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.orderPos = append(s.orderPos, -1)
	s.heapInsert(v)
	return v
}

func (s *Solver) litValue(l Lit) int8 { return s.value[l] }

// AddClause adds a clause (given at decision level 0). Duplicate literals
// are removed; tautologies are ignored. Returns false if the formula is
// already contradictory.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatable {
		return false
	}
	// Normalize: sort-free dedup, tautology check, drop false lits / keep
	// undecided and true ones (only root-level assignments exist now).
	out := lits[:0:0]
	for _, l := range lits {
		switch s.litValue(l) {
		case lTrue:
			return true // satisfied forever (root level)
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsatable = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsatable = true
			return false
		}
		if s.propagate() != nil {
			s.unsatable = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	// Watch the first two literals.
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

// enqueue assigns a literal true with the given reason clause.
func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.value[l] = lTrue
	s.value[l.Not()] = lFalse
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation from qhead; it returns the
// conflicting clause or nil. Resuming at qhead rather than at the start of
// the trail changes nothing: after a literal's watch list is processed,
// every clause left on it has its other watch true at the same or a lower
// decision level, so it stays satisfied for as long as the literal stays
// assigned, and a re-scan would keep every clause in place and enqueue
// nothing.
func (s *Solver) propagate() *clause {
	for ; s.qhead < len(s.trail); s.qhead++ {
		p := s.trail[s.qhead]
		s.propagations++
		// Clauses watching ¬p must find a new watch or propagate.
		ws := s.watches[p]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if c.deleted {
				continue // lazily dropped from the watch list
			}
			// Ensure lits[1] is the false literal (¬p ... p.Not()).
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: keep the remaining watchers and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = kept
				return c
			}
		}
		s.watches[p] = kept
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Scaling keeps the order of distinct activities except where
		// rounding or underflow makes them equal, which hands the tie to
		// the lower index; re-heapify rather than reason about which.
		for i := len(s.order)/2 - 1; i >= 0; i-- {
			s.heapDown(i)
		}
		return
	}
	if i := s.orderPos[v]; i >= 0 {
		s.heapUp(int(i))
	}
}

// before is the heap order: higher activity first, lower index on ties.
func (s *Solver) before(a, b int32) bool {
	aa, ab := s.activity[a], s.activity[b]
	return aa > ab || aa == ab && a < b
}

func (s *Solver) heapInsert(v int) {
	if s.orderPos[v] >= 0 {
		return
	}
	s.orderPos[v] = int32(len(s.order))
	s.order = append(s.order, int32(v))
	s.heapUp(len(s.order) - 1)
}

func (s *Solver) heapUp(i int) {
	v := s.order[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(v, s.order[parent]) {
			break
		}
		s.order[i] = s.order[parent]
		s.orderPos[s.order[i]] = int32(i)
		i = parent
	}
	s.order[i] = v
	s.orderPos[v] = int32(i)
}

func (s *Solver) heapDown(i int) {
	v := s.order[i]
	n := len(s.order)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.before(s.order[r], s.order[child]) {
			child = r
		}
		if !s.before(s.order[child], v) {
			break
		}
		s.order[i] = s.order[child]
		s.orderPos[s.order[i]] = int32(i)
		i = child
	}
	s.order[i] = v
	s.orderPos[v] = int32(i)
}

// heapPop removes and returns the first variable in heap order.
func (s *Solver) heapPop() int {
	v := s.order[0]
	last := len(s.order) - 1
	s.order[0] = s.order[last]
	s.orderPos[s.order[0]] = 0
	s.order = s.order[:last]
	s.orderPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return int(v)
}

// analyze derives a first-UIP learned clause from the conflict and returns
// it with the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learned := []Lit{0} // slot 0 reserved for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := int32(len(s.lim))

	reasonLits := func(c *clause, skip Lit) []Lit {
		if skip < 0 {
			return c.lits
		}
		return c.lits[1:] // lits[0] is the asserting literal of the reason
	}

	c := confl
	for {
		for _, q := range reasonLits(c, p) {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.toClear = append(s.toClear, v)
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Select the next trail literal at the current level.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter <= 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learned[0] = p.Not()
	for _, v := range s.toClear {
		seen[v] = false
	}
	s.toClear = s.toClear[:0]

	// Backtrack level: the highest level among the other literals.
	back := 0
	for i := 1; i < len(learned); i++ {
		if l := int(s.level[learned[i].Var()]); l > back {
			back = l
		}
	}
	// Move a literal of the backtrack level into watch position 1.
	for i := 1; i < len(learned); i++ {
		if int(s.level[learned[i].Var()]) == back {
			learned[1], learned[i] = learned[i], learned[1]
			break
		}
	}
	return learned, back
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if len(s.lim) <= level {
		return
	}
	bound := s.lim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.value[MkLit(v, false)]
		s.value[l], s.value[l.Not()] = lUndef, lUndef
		s.reason[v] = nil
		s.heapInsert(v)
	}
	s.trail = s.trail[:bound]
	s.lim = s.lim[:level]
	if s.qhead > bound {
		s.qhead = bound
	}
}

// decide picks the unassigned variable with the highest activity, the
// lowest index among equals.
func (s *Solver) decide() (Lit, bool) {
	for len(s.order) > 0 {
		if v := s.heapPop(); s.value[MkLit(v, false)] == lUndef {
			return MkLit(v, s.phase[v] != lTrue), true
		}
	}
	return 0, false
}

// Solve runs the CDCL loop with the given conflict budget (0 = default of
// one million conflicts). On Sat, Value reports the model.
func (s *Solver) Solve(conflictBudget int64) Result {
	if s.unsatable {
		return Unsat
	}
	if conflictBudget <= 0 {
		conflictBudget = 1 << 20
	}
	if confl := s.propagate(); confl != nil {
		return Unsat
	}
	restartLimit := int64(100)
	sinceRestart := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			sinceRestart++
			if len(s.lim) == 0 {
				return Unsat
			}
			if s.conflicts > conflictBudget {
				return Unknown
			}
			learned, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learned) == 1 {
				if !s.enqueue(learned[0], nil) {
					return Unsat
				}
			} else {
				c := &clause{lits: learned, learned: true}
				s.clauses = append(s.clauses, c)
				s.learnedCount++
				s.watch(c)
				if !s.enqueue(learned[0], c) {
					return Unsat
				}
			}
			s.varInc /= 0.95
			if s.learnedCount > s.maxLearned {
				s.reduceDB()
			}
			if sinceRestart >= restartLimit {
				sinceRestart = 0
				restartLimit += restartLimit / 2
				s.cancelUntil(0)
			}
			continue
		}
		l, ok := s.decide()
		if !ok {
			return Sat
		}
		s.lim = append(s.lim, len(s.trail))
		s.enqueue(l, nil)
	}
}

// reduceDB deletes the longer half of the learned clauses (reasons of
// current assignments excepted), keeping propagation fast on long runs.
// Deleted clauses are dropped lazily from the watch lists.
func (s *Solver) reduceDB() {
	locked := make(map[*clause]bool, len(s.trail))
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nil {
			locked[r] = true
		}
	}
	var learned []*clause
	for _, c := range s.clauses {
		if c.learned && !c.deleted && !locked[c] {
			learned = append(learned, c)
		}
	}
	// Longer learned clauses are weaker; delete the worse half.
	sortClausesByLenDesc(learned)
	for _, c := range learned[:len(learned)/2] {
		c.deleted = true
		s.learnedCount--
	}
	kept := s.clauses[:0]
	for _, c := range s.clauses {
		if !c.deleted {
			kept = append(kept, c)
		}
	}
	s.clauses = kept
	s.maxLearned += s.maxLearned / 10
}

func sortClausesByLenDesc(cs []*clause) {
	sort.Slice(cs, func(i, j int) bool { return len(cs[i].lits) > len(cs[j].lits) })
}

// Value returns the model value of variable v after Solve returned Sat.
func (s *Solver) Value(v int) bool { return s.value[MkLit(v, false)] == lTrue }

// Stats returns (propagations, conflicts) counters. Propagations counts
// each assignment once, when its watch list is processed, so it measures
// bookkeeping; conflicts measures the search itself.
func (s *Solver) Stats() (int64, int64) { return s.propagations, s.conflicts }
