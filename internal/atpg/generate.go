package atpg

import (
	"context"
	"math/rand"

	"sddict/internal/fault"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// Config controls detection test-set generation.
type Config struct {
	// Seed drives random patterns and PODEM diversification.
	Seed int64
	// NDetect is the number of distinct tests that must detect each fault
	// (1 for a plain detection set, 10 for the paper's 10-detection sets).
	NDetect int
	// BacktrackLimit is the per-fault PODEM backtrack budget.
	BacktrackLimit int
	// MaxRandomBatches caps the 64-pattern random batches tried.
	MaxRandomBatches int
	// UselessBatchLimit stops the random phase after this many consecutive
	// batches that contributed no kept pattern.
	UselessBatchLimit int
	// TopUpRounds bounds the deterministic top-up sweeps.
	TopUpRounds int
	// MaxTests caps the final test count (0 = unlimited).
	MaxTests int
	// Compact runs reverse-order fault-simulation compaction on the result
	// (only meaningful for NDetect == 1).
	Compact bool
	// SATConflictBudget enables a SAT detection-miter fallback for faults
	// PODEM abandons: within the budget every such fault is either given a
	// test or proven redundant. 0 disables the fallback.
	SATConflictBudget int64
}

// DefaultConfig returns a reasonable configuration for n-detection
// generation.
func DefaultConfig(nDetect int) Config {
	return Config{
		NDetect:           nDetect,
		BacktrackLimit:    300,
		MaxRandomBatches:  400,
		UselessBatchLimit: 8,
		TopUpRounds:       6,
		SATConflictBudget: 5000,
	}
}

// GenStats reports how a test set was produced.
type GenStats struct {
	RandomTests int // tests kept from the random phase
	PodemTests  int // tests added by deterministic top-up
	Untestable  int // faults proven redundant
	Aborted     int // faults abandoned at the backtrack limit
	Detected    int // faults detected at least once
	NDetected   int // faults detected at least NDetect times
	Faults      int // faults targeted
	// SATCalls and SATConflicts count the detection-miter SAT fallback
	// invocations and the conflicts they spent; unlike wall time, they
	// repeat exactly from run to run.
	SATCalls     int
	SATConflicts int64
	// Interrupted is set when generation stopped early on context
	// cancellation or deadline; the returned test set is valid but may
	// leave faults short of their detection targets.
	Interrupted bool
}

// Coverage returns the single-detection fault coverage over the targeted
// faults.
func (s GenStats) Coverage() float64 {
	if s.Faults == 0 {
		return 0
	}
	return float64(s.Detected) / float64(s.Faults)
}

// GenerateDetection builds an n-detection test set for the given faults on
// a combinational circuit: a random-pattern phase keeps patterns that give
// some fault a still-needed detection, then PODEM tops up the faults left
// short. Untestable faults are excluded from the targets once proven
// redundant.
func GenerateDetection(c *netlist.Circuit, faults []fault.Fault, cfg Config) (*pattern.Set, GenStats) {
	return GenerateDetectionCtx(context.Background(), c, faults, cfg)
}

// GenerateDetectionCtx is GenerateDetection under a context, honoured at
// batch, fault and PODEM-decision granularity. On cancellation it degrades
// gracefully: the tests kept so far are returned (every one of them earned
// its place by detecting some fault) with GenStats.Interrupted set.
func GenerateDetectionCtx(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config) (*pattern.Set, GenStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.NDetect < 1 {
		cfg.NDetect = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	view := netlist.NewScanView(c)
	s := sim.New(view)
	width := view.NumInputs()
	tests := pattern.NewSet(width)
	stats := GenStats{Faults: len(faults)}

	counts := make([]int, len(faults))
	dead := make([]bool, len(faults)) // untestable or given up
	active := func() []int {
		var a []int
		for i := range faults {
			if !dead[i] && counts[i] < cfg.NDetect {
				a = append(a, i)
			}
		}
		return a
	}
	full := func(tests *pattern.Set) bool {
		return cfg.MaxTests > 0 && tests.Len() >= cfg.MaxTests
	}
	// The random phase leaves head-room under MaxTests so deterministic
	// top-up can still target the faults random patterns missed.
	randomCap := cfg.MaxTests
	if randomCap > 0 {
		reserve := randomCap / 5
		if reserve > 500 {
			reserve = 500
		}
		randomCap -= reserve
	}
	randomFull := func(tests *pattern.Set) bool {
		return randomCap > 0 && tests.Len() >= randomCap
	}

	// simulateCandidates fault-simulates a candidate batch and appends the
	// patterns that supply a needed detection, updating counts.
	detWords := make([]uint64, len(faults))
	simulateCandidates := func(cand []pattern.Vector) int {
		set := pattern.NewSet(width)
		for _, v := range cand {
			set.Add(v)
		}
		batch := set.Pack()[0]
		s.Apply(&batch)
		act := active()
		for _, fi := range act {
			detWords[fi] = s.Propagate(faults[fi]).Detect
		}
		kept := 0
		for p := 0; p < batch.Count; p++ {
			if full(tests) {
				break
			}
			bit := uint64(1) << uint(p)
			useful := false
			for _, fi := range act {
				if detWords[fi]&bit != 0 && counts[fi] < cfg.NDetect {
					useful = true
					break
				}
			}
			if !useful {
				continue
			}
			tests.Add(cand[p])
			kept++
			for _, fi := range act {
				if detWords[fi]&bit != 0 {
					counts[fi]++
				}
			}
		}
		return kept
	}

	// Random phase.
	useless := 0
	for b := 0; b < cfg.MaxRandomBatches && useless < cfg.UselessBatchLimit && !randomFull(tests); b++ {
		if ctx.Err() != nil {
			stats.Interrupted = true
			break
		}
		if len(active()) == 0 {
			break
		}
		cand := make([]pattern.Vector, 64)
		for i := range cand {
			cand[i] = pattern.Random(r, width)
		}
		if kept := simulateCandidates(cand); kept == 0 {
			useless++
		} else {
			useless = 0
			stats.RandomTests += kept
		}
	}

	// Deterministic top-up.
	eng := NewEngine(c)
	eng.BacktrackLimit = cfg.BacktrackLimit
	eng.Randomize(r)
	eng.SetContext(ctx)
	abortTries := make([]int, len(faults))
	seen := make(map[string]bool, tests.Len())
	for _, v := range tests.Vecs {
		seen[v.Key()] = true
	}
	for round := 0; round < cfg.TopUpRounds && !full(tests); round++ {
		pending := active()
		if len(pending) == 0 {
			break
		}
		progress := false
		for _, fi := range pending {
			if ctx.Err() != nil {
				stats.Interrupted = true
				break
			}
			if counts[fi] >= cfg.NDetect || dead[fi] || full(tests) {
				continue
			}
			cube, status := eng.Generate(faults[fi])
			if status == Aborted && abortTries[fi] >= 1 && cfg.SATConflictBudget > 0 {
				// Second structural abort: escalate to the complete SAT
				// procedure on the detection miter.
				if miter, merr := BuildDetectionMiter(c, faults[fi]); merr == nil {
					if v, sstatus, conflicts, serr := SolveOutputOne(miter, miter.POs[0], cfg.SATConflictBudget); serr == nil {
						stats.SATCalls++
						stats.SATConflicts += conflicts
						cube, status = v, sstatus
					}
				}
			}
			switch status {
			case Untestable:
				dead[fi] = true
				stats.Untestable++
				progress = true
				continue
			case Aborted:
				abortTries[fi]++
				if abortTries[fi] >= 2 {
					dead[fi] = true
					stats.Aborted++
				}
				progress = true // state advanced toward giving up
				continue
			}
			need := cfg.NDetect - counts[fi]
			var fills []pattern.Vector
			for attempt := 0; attempt < 4*need && len(fills) < need; attempt++ {
				v := cube.Clone()
				v.RandomFill(r)
				if k := v.Key(); !seen[k] {
					seen[k] = true
					fills = append(fills, v)
				}
			}
			if len(fills) == 0 {
				// The cube's fills are all already in the set, yet the
				// fault is short on detections: the cube must overlap
				// existing tests that detect other faults. Count it dead to
				// avoid spinning.
				dead[fi] = true
				stats.Aborted++
				continue
			}
			if kept := simulateCandidates(fills); kept > 0 {
				stats.PodemTests += kept
				progress = true
			}
		}
		if !progress || stats.Interrupted {
			break
		}
	}

	// Compaction is an optimization, not a correctness step: skip it when
	// already interrupted rather than start more fault simulation.
	if cfg.Compact && cfg.NDetect == 1 && !stats.Interrupted && ctx.Err() == nil {
		tests = Compact(view, faults, tests)
	}
	for i := range faults {
		if counts[i] > 0 {
			stats.Detected++
		}
		if counts[i] >= cfg.NDetect {
			stats.NDetected++
		}
	}
	return tests, stats
}

// Compact performs reverse-order fault-simulation compaction: tests are
// fault-simulated newest-first with fault dropping, and tests that detect
// no still-undetected fault are removed. The surviving tests keep their
// original relative order.
func Compact(view *netlist.ScanView, faults []fault.Fault, tests *pattern.Set) *pattern.Set {
	s := sim.New(view)
	detected := make([]bool, len(faults))
	keep := make([]bool, tests.Len())

	// Walk 64-test windows from the end; within a window, examine patterns
	// from the highest index down.
	for start := ((tests.Len() - 1) / 64) * 64; start >= 0; start -= 64 {
		end := start + 64
		if end > tests.Len() {
			end = tests.Len()
		}
		window := pattern.NewSet(tests.Width)
		for _, v := range tests.Vecs[start:end] {
			window.Add(v)
		}
		batch := window.Pack()[0]
		s.Apply(&batch)
		det := make([]uint64, 0, len(faults))
		live := make([]int, 0, len(faults))
		for fi := range faults {
			if detected[fi] {
				continue
			}
			live = append(live, fi)
			det = append(det, s.Propagate(faults[fi]).Detect)
		}
		for p := batch.Count - 1; p >= 0; p-- {
			bit := uint64(1) << uint(p)
			useful := false
			for li, fi := range live {
				if detected[fi] || det[li]&bit == 0 {
					continue
				}
				useful = true
				detected[fi] = true
			}
			keep[start+p] = useful
		}
	}

	out := pattern.NewSet(tests.Width)
	for i, v := range tests.Vecs {
		if keep[i] {
			out.Add(v)
		}
	}
	return out
}
