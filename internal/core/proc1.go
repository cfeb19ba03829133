package core

import (
	"context"

	"sddict/internal/resp"
)

// procedure1 is the paper's Procedure 1: greedy baseline selection over the
// given test order with the LOWER early cutoff. It returns the selected
// baselines (indexed by test, not by order position) and the number of
// indistinguished pairs left. done is false when the run was cut short by
// ctx; the partial baselines are still a valid selection (unprocessed tests
// keep the fault-free baseline), but the pair count then reflects only the
// refinements applied so far.
//
// Each step runs the detected-index scan (scanAndRefine), whose dist
// values are bit-identical to the member scan's, so the LOWER cutoff,
// cand_evals and the selected baselines match the paper's procedure
// exactly (DESIGN.md §14).
func procedure1(ctx context.Context, m *resp.Matrix, order []int, lower int, evals, cutoffs *int64) ([]int32, int64, bool) {
	p := NewPartition(m.N)
	baselines := make([]int32, m.K) // unselected tests keep the fault-free baseline
	var scratch distScratch
	for _, j := range order {
		if p.Done() {
			break
		}
		if ctx.Err() != nil {
			return baselines, p.Pairs(), false
		}
		baselines[j] = scratch.scanAndRefine(p, m, j, lower, evals, cutoffs)
	}
	return baselines, p.Pairs(), true
}

// distScratch holds reusable buffers for the dist scans. Each concurrent
// restart owns its own instance — nothing here may be shared between
// pool tasks.
type distScratch struct {
	cnt     []int64
	dist    []int64
	touched []int32

	// Index-scan buffers (selectIndexed/refineIndexed). zcnt and dcnt are
	// per-label counters kept all-zero between tests.
	zcnt   []int32
	dcnt   []int32
	ztouch []int32
	dtouch []int32

	// Meet-dist buffers (distMeet). bslot maps suffix labels to bucket
	// slots and is kept all −1 between calls.
	bslot  []int32
	bmem   []int32
	btouch []int32
	bsize  []int32
	bcur   []int32
}

// perClass computes, for every response class z of one test, the paper's
// dist(z): the number of indistinguished pairs that selecting z as the
// baseline would distinguish. A pair (i1,i2) of a group is distinguished
// when exactly one of the two faults has class z, so each group of size s
// with c members in class z contributes c·(s−c). The partition's
// maintained member spans make this O(live + numClasses) — isolated
// faults are never visited. The returned slice is scratch-backed and only
// valid until the next perClass call on the same scratch.
func (sc *distScratch) perClass(p *Partition, class []int32, numClasses int) []int64 {
	if cap(sc.dist) < numClasses {
		sc.dist = make([]int64, numClasses)
	}
	dist := sc.dist[:numClasses]
	for i := range dist {
		dist[i] = 0
	}
	if p.groups == 0 {
		return dist
	}
	if cap(sc.cnt) < numClasses {
		sc.cnt = make([]int64, numClasses)
	}
	cnt := sc.cnt[:numClasses]
	for _, l := range p.labs {
		s := int64(p.size[l])
		if s < 2 {
			continue
		}
		sc.touched = sc.touched[:0]
		for _, f := range p.members[p.spanLo[l]:p.spanHi[l]] {
			z := class[f]
			if cnt[z] == 0 {
				sc.touched = append(sc.touched, z)
			}
			cnt[z]++
		}
		for _, z := range sc.touched {
			dist[z] += cnt[z] * (s - cnt[z])
			cnt[z] = 0
		}
	}
	return dist
}
