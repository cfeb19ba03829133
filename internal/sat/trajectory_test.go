package sat

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// outcome is the observable trajectory of one Solve call: its result, the
// conflicts it took and a hash of the model. Two solvers that make the
// same decisions and learn the same clauses agree on all three.
type outcome struct {
	Res       Result
	Conflicts int64
	Model     uint64 // FNV-1a over the assignment; 0 unless Sat
}

func (o outcome) String() string {
	return fmt.Sprintf("{%s, %d, %#016x}", [...]string{"Sat", "Unsat", "Unknown"}[o.Res], o.Conflicts, o.Model)
}

// solveOutcome runs s.Solve(budget) and records its outcome.
func solveOutcome(s *Solver, budget int64) outcome {
	res := s.Solve(budget)
	_, conflicts := s.Stats()
	o := outcome{Res: res, Conflicts: conflicts}
	if res == Sat {
		h := fnv.New64a()
		for v := 0; v < s.NumVars(); v++ {
			if s.Value(v) {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		o.Model = h.Sum64()
	}
	return o
}

// random3CNF builds a seeded random 3-CNF instance over nv variables near
// the 4.26 clause/variable phase transition, where instances are hard and
// a mix of satisfiable and unsatisfiable.
func random3CNF(seed int64, nv int) *Solver {
	r := rand.New(rand.NewSource(seed))
	nc := (nv*426 + 50) / 100
	s := NewSolver(nv)
	for i := 0; i < nc; i++ {
		a := r.Intn(nv)
		b := r.Intn(nv - 1)
		if b >= a {
			b++
		}
		c := r.Intn(nv)
		for c == a || c == b {
			c = r.Intn(nv)
		}
		s.AddClause(MkLit(a, r.Intn(2) == 0), MkLit(b, r.Intn(2) == 0), MkLit(c, r.Intn(2) == 0))
	}
	return s
}

// TestTrajectoryPinned pins the solver's exact search trajectory on a
// fixed corpus: seeded random 3-CNF near the phase transition and
// pigeonhole instances, including budgeted runs long enough to trigger
// restarts, learned-clause reduction and the activity rescale. Solver
// bookkeeping changes (propagation queue, conflict analysis, decision
// order) must reproduce every decision, so any drift here is a change of
// behaviour. Conflicts are pinned rather than propagations, which count
// bookkeeping rather than search steps.
func TestTrajectoryPinned(t *testing.T) {
	type instance struct {
		name   string
		build  func() *Solver
		budget int64
	}
	var corpus []instance
	for _, nv := range []int{50, 75, 100, 125, 150, 200} {
		for seed := int64(1); seed <= 6; seed++ {
			nv, seed := nv, seed
			corpus = append(corpus, instance{fmt.Sprintf("3cnf/v%d/s%d", nv, seed),
				func() *Solver { return random3CNF(seed, nv) }, 0})
		}
	}
	for n := 3; n <= 7; n++ {
		n := n
		corpus = append(corpus, instance{fmt.Sprintf("php/%d", n), func() *Solver { return pigeonhole(n) }, 0})
	}
	corpus = append(corpus, instance{"php/8/budget", func() *Solver { return pigeonhole(8) }, 8000})

	want := []outcome{
		{Sat, 40, 0x188e2d8d5f07f812},
		{Sat, 11, 0x5286851b5e707b18},
		{Unsat, 64, 0x0000000000000000},
		{Unsat, 93, 0x0000000000000000},
		{Sat, 47, 0xa5227c11427eede8},
		{Unsat, 83, 0x0000000000000000},
		{Unsat, 118, 0x0000000000000000},
		{Sat, 111, 0x0d4f980ce9a7fee5},
		{Sat, 18, 0xb70f8389efdf8e98},
		{Unsat, 232, 0x0000000000000000},
		{Unsat, 250, 0x0000000000000000},
		{Sat, 57, 0xcd501df66085ddd4},
		{Unsat, 311, 0x0000000000000000},
		{Sat, 268, 0x291fbc665b200718},
		{Unsat, 439, 0x0000000000000000},
		{Sat, 295, 0xebcdfe3c905cdbdf},
		{Sat, 317, 0xf5be1453bbd857d1},
		{Sat, 316, 0x455b33bb62ffb9fd},
		{Unsat, 1532, 0x0000000000000000},
		{Sat, 268, 0x6b98505dba93bba4},
		{Sat, 258, 0x97ff38e5f73d7e30},
		{Unsat, 1032, 0x0000000000000000},
		{Unsat, 1226, 0x0000000000000000},
		{Sat, 881, 0xb7285d13a40fafbb},
		{Sat, 107, 0x47c2d833b461cbb6},
		{Sat, 1546, 0xa749e3da297ac87d},
		{Sat, 1156, 0x062098466ef71abf},
		{Unsat, 2778, 0x0000000000000000},
		{Sat, 146, 0x6549765f28b5b097},
		{Sat, 811, 0x31016fbd7acb9318},
		{Sat, 2667, 0x4c76914b79a75391},
		{Unsat, 11352, 0x0000000000000000},
		{Sat, 571, 0xba5f40b1e8e249db},
		{Sat, 2543, 0x66dc495700f6613e},
		{Sat, 3578, 0xdb75f51162623fde},
		{Sat, 9549, 0x3503b2c44b69fdad},
		{Unsat, 7, 0x0000000000000000},
		{Unsat, 28, 0x0000000000000000},
		{Unsat, 145, 0x0000000000000000},
		{Unsat, 824, 0x0000000000000000},
		{Unsat, 4294, 0x0000000000000000},
		{Unknown, 8001, 0x0000000000000000},
	}

	got := make([]outcome, len(corpus))
	for i, in := range corpus {
		got[i] = solveOutcome(in.build(), in.budget)
	}
	if len(want) != len(got) {
		t.Fatalf("golden table has %d entries, corpus %d:\n%s", len(want), len(got), goldenTable(got))
	}
	for i := range corpus {
		if got[i] != want[i] {
			t.Errorf("%s: got %v, want %v", corpus[i].name, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("current trajectory table:\n%s", goldenTable(got))
	}
}

// goldenTable formats outcomes as a Go literal for the want table.
func goldenTable(os []outcome) string {
	var b strings.Builder
	for _, o := range os {
		fmt.Fprintf(&b, "\t\t%v,\n", o)
	}
	return b.String()
}

// TestDecideMatchesScanAfterRescaleTies: the 1e-100 activity rescale can
// round two distinct activities to the same value, which hands the tie to
// the lower index. decide must then still return exactly what a linear
// scan for the most active, lowest-index unassigned variable returns.
func TestDecideMatchesScanAfterRescaleTies(t *testing.T) {
	// 1.2e100 and its successor are distinct activities that the rescale
	// rounds to the same value. Seed them directly, as the most active
	// pair, with the higher one ahead in the heap.
	s := NewSolver(4)
	s.activity[0] = 1.2e100
	s.activity[1] = math.Nextafter(1.2e100, math.Inf(1))
	s.heapUp(int(s.orderPos[1]))
	// A bump past 1e100 on a less active variable triggers the rescale.
	s.varInc = 1.01e100
	s.bumpVar(2)
	if s.activity[0] != s.activity[1] {
		t.Fatalf("rescale left %v and %v distinct", s.activity[0], s.activity[1])
	}
	for range s.NumVars() {
		want, best := -1, -1.0
		for v := range s.NumVars() {
			if s.value[MkLit(v, false)] == lUndef && s.activity[v] > best {
				want, best = v, s.activity[v]
			}
		}
		l, ok := s.decide()
		if !ok || l.Var() != want {
			t.Fatalf("decide picked %d (ok=%v), linear scan picks %d", l.Var(), ok, want)
		}
		s.lim = append(s.lim, len(s.trail))
		s.enqueue(l, nil)
	}
}
