package core

import (
	"context"

	"sddict/internal/obs"
	"sddict/internal/par"
	"sddict/internal/resp"
)

// BuildSameDiffMulti implements the extension the paper mentions but does
// not evaluate ("one can select more than one baseline vector for a test
// vector"): two baselines per test, giving two same/different bits per
// fault/test. Selection is greedy per test — the best candidate is chosen
// and applied, then the best candidate against the refined partition — with
// the same random-order restart scheme as the one-baseline construction.
// The dictionary costs 2·k·n bits plus storage for the non-fault-free
// baselines. It panics on invalid options or matrix (the context-aware
// form returns the error).
func BuildSameDiffMulti(m *resp.Matrix, opt Options) (*Dictionary, BuildStats) {
	d, st, err := BuildSameDiffMultiCtx(context.Background(), m, opt)
	if err != nil {
		panic("core: " + err.Error())
	}
	return d, st
}

// BuildSameDiffMultiCtx is BuildSameDiffMulti under a context: cancellation
// and deadline stop the search at restart/sweep/test granularity and return
// the best two-baseline dictionary found so far with BuildStats.Interrupted
// set. Checkpoint/resume (Options.Resume, Options.OnCheckpoint) applies
// only to the single-baseline construction and is ignored here.
func BuildSameDiffMultiCtx(ctx context.Context, m *resp.Matrix, opt Options) (*Dictionary, BuildStats, error) {
	var st BuildStats
	st.IndistSeeded = -1
	if err := opt.Validate(); err != nil {
		return nil, st, err
	}
	if err := ValidateMatrix(m); err != nil {
		return nil, st, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st.IndistFull = NewFull(m).Indistinguished()

	maxRestarts := opt.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 1
	}

	// The restart driver mirrors the single-baseline one: restart i is a
	// pure function of (m, opt.Seed, i) — the shuffle schedule is shared
	// with BuildSameDiffCtx, so the two constructions explore the same
	// test orders — and results fold in index order, making the outcome
	// identical at every Options.Workers setting.
	type multiResult struct {
		b1, b2  []int32
		indist  int64
		evals   int64
		cutoffs int64
		done    bool
	}
	ob := opt.Obs
	var best1, best2 []int32
	var bestIndist int64
	noImprove := 0
	pool := par.New(opt.Workers)
	par.Stream(ctx, pool, maxRestarts, func(ctx context.Context, i int) multiResult {
		if ob.Tracing() {
			ob.Emit("restart_start", map[string]any{"restart": i, "order_seed": OrderSeed(opt.Seed, i)})
		}
		var res multiResult
		order := restartOrder(opt.Seed, i, m.K)
		res.b1, res.b2, res.indist, res.done = procedure1Multi(ctx, m, order, opt.Lower, &res.evals, &res.cutoffs)
		return res
	}, func(i int, res multiResult) bool {
		if !res.done {
			st.Interrupted = true
			if i == 0 {
				// Keep the partial first restart: it is still a valid
				// (if weak) two-baseline selection.
				best1, best2, bestIndist = res.b1, res.b2, res.indist
				st.Restarts = 1
			}
			return false
		}
		st.CandidateEvals += res.evals
		st.Restarts++
		improved := i == 0 || res.indist < bestIndist
		if improved {
			if i > 0 {
				noImprove = 0
			}
			best1, best2, bestIndist = res.b1, res.b2, res.indist
		} else {
			noImprove++
		}
		// Observation at the ordered fold point only, as in runRestartsCtx.
		ob.M().Inc(obs.RestartsRun)
		ob.M().Add(obs.CandidateScans, res.evals)
		ob.M().Add(obs.LowerCutoffHits, res.cutoffs)
		ob.M().Set(obs.RestartsSinceImprove, int64(noImprove))
		ob.M().Set(obs.IndistPairs, bestIndist)
		ob.M().Observe(obs.RestartIndist, res.indist)
		if ob.Tracing() {
			ob.Emit("restart_end", map[string]any{
				"restart": i, "indist": res.indist, "best": bestIndist,
				"improved": improved,
			})
		}
		ob.Tick()
		if noImprove >= opt.Calls1 || st.Restarts >= maxRestarts || bestIndist <= st.IndistFull {
			return false
		}
		if ctx.Err() != nil {
			st.Interrupted = true
			return false
		}
		return true
	})
	st.IndistProc1 = bestIndist
	st.IndistProc2 = bestIndist
	if opt.RunProcedure2 && !st.Interrupted && bestIndist > st.IndistFull {
		indist, sweeps, done := procedure2Multi(ctx, m, best1, best2)
		st.Proc2Sweeps = sweeps
		st.IndistProc2 = indist
		st.Proc2Improved = indist < st.IndistProc1
		bestIndist = indist
		st.Interrupted = st.Interrupted || !done
	}
	st.IndistFinal = bestIndist
	st.ReachedFullFloor = bestIndist == st.IndistFull
	for j := range best1 {
		if best1[j] != 0 {
			st.StoredBaselines++
		}
		if best2[j] != 0 {
			st.StoredBaselines++
		}
	}
	return &Dictionary{Kind: SameDiff, M: m, Baselines: best1, ExtraBaselines: best2}, st, nil
}

// procedure1Multi mirrors procedure1 with two baseline slots per test. done
// is false when ctx cut the run short; like procedure1, the partial
// baselines remain a valid selection.
func procedure1Multi(ctx context.Context, m *resp.Matrix, order []int, lower int, evals, cutoffs *int64) ([]int32, []int32, int64, bool) {
	p := NewPartition(m.N)
	b1 := make([]int32, m.K)
	b2 := make([]int32, m.K)
	var scratch distScratch
	for _, j := range order {
		if p.Done() {
			break
		}
		if ctx.Err() != nil {
			return b1, b2, p.Pairs(), false
		}
		b1[j] = scratch.scanAndRefine(p, m, j, lower, evals, cutoffs)
		if p.Done() {
			break
		}
		b2[j] = scratch.scanAndRefine(p, m, j, lower, evals, cutoffs)
	}
	return b1, b2, p.Pairs(), true
}

// procedure2Multi extends Procedure 2 to the two-baseline dictionary: each
// of a test's two baseline slots is locally optimized in turn while the
// other slot (and all other tests) stay fixed, sweeping until no
// replacement improves the distinguished-pair count. The same
// prefix/suffix partition scheme as procedure2 applies, with each test
// contributing two refinements. done is false when ctx cut the sweeps
// short; the in-place baselines remain valid and no worse than the input.
func procedure2Multi(ctx context.Context, m *resp.Matrix, b1, b2 []int32) (int64, int, bool) {
	var scratch distScratch
	var ms meetScratch
	restBase := &Partition{}
	suf := newSuffixLabels(m.N, m.K)
	sweeps := 0
	var finalIndist int64
	for {
		sweeps++
		improved := false

		suf.buildMulti(m, b1, b2)
		prefix := NewPartition(m.N)
		for j := 0; j < m.K; j++ {
			if ctx.Err() != nil {
				return sdMultiIndist(m, b1, b2), sweeps, false
			}
			// Optimize slot 1 with slot 2 fixed.
			meetInto(restBase, prefix, suf.lab(j+1), suf.next[j+1], &ms)
			rest1 := restBase.Clone()
			rest1.RefineByBaseline(m.Class[j], b2[j])
			dist := scratch.perClass(rest1, m.Class[j], m.NumClasses(j))
			best := b1[j]
			for z := int32(0); z < int32(len(dist)); z++ {
				if dist[z] > dist[best] {
					best = z
				}
			}
			if best != b1[j] {
				b1[j] = best
				improved = true
			}
			// Optimize slot 2 with the (possibly new) slot 1 fixed.
			rest2 := restBase
			rest2.RefineByBaseline(m.Class[j], b1[j])
			dist = scratch.perClass(rest2, m.Class[j], m.NumClasses(j))
			best = b2[j]
			for z := int32(0); z < int32(len(dist)); z++ {
				if dist[z] > dist[best] {
					best = z
				}
			}
			if best != b2[j] {
				b2[j] = best
				improved = true
			}
			prefix.RefineByBaseline(m.Class[j], b1[j])
			prefix.RefineByBaseline(m.Class[j], b2[j])
		}
		finalIndist = prefix.Pairs()
		if !improved {
			return finalIndist, sweeps, true
		}
		if ctx.Err() != nil {
			return finalIndist, sweeps, false
		}
	}
}

// sdMultiIndist returns the indistinguished-pair count of the two-baseline
// dictionary with the given slots, by direct refinement.
func sdMultiIndist(m *resp.Matrix, b1, b2 []int32) int64 {
	p := NewPartition(m.N)
	for j := 0; j < m.K; j++ {
		if p.Done() {
			break
		}
		p.RefineByBaseline(m.Class[j], b1[j])
		p.RefineByBaseline(m.Class[j], b2[j])
	}
	return p.Pairs()
}
