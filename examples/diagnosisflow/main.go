// Diagnosisflow demonstrates the dictionaries in their intended role:
// tester-side defect diagnosis. A synthetic scan circuit is built, defects
// are injected (both modeled single stuck-at faults and a non-modeled
// double fault), the observed responses are reduced to signatures, and the
// candidate sets produced by the pass/fail and same/different dictionaries
// are compared.
//
// Run with:
//
//	go run ./examples/diagnosisflow
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sddict/internal/atpg"
	"sddict/internal/core"
	"sddict/internal/diagnose"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/resp"
)

func main() {
	// Synthetic analog of ISCAS-89 s344 (see DESIGN.md on substitution).
	seq := gen.Profiles["s344"].MustGenerate(2026)
	comb := netlist.Combinationalize(seq)
	col := fault.Collapse(comb)
	fmt.Println("circuit:", comb.Stat())

	cfg := atpg.DefaultConfig(10)
	cfg.Seed = 1
	tests, st := atpg.GenerateDetection(comb, col.Faults, cfg)
	fmt.Printf("test set: %d vectors (10-detection), coverage %.1f%%\n", tests.Len(), 100*st.Coverage())

	m := resp.Build(netlist.NewScanView(comb), col.Faults, tests)
	pf := core.NewPassFail(m)
	opts := core.DefaultOptions
	opts.Seed = 3
	sd, _ := core.BuildSameDiff(m, opts)
	fmt.Printf("dictionaries: pass/fail %d bits, same/different %d bits\n\n",
		pf.SizeBits(), sd.NominalSizeBits())

	// The deployable forms: the same Compile() output sdd -publish wraps
	// into an artifact and sddserve diagnoses against. A slice, not a
	// map, so the report prints in a fixed order.
	dicts := []struct {
		name string
		c    *core.Compiled
	}{{"pass/fail", mustCompile(pf)}, {"same/different", mustCompile(sd)}}

	// Scenario 1: modeled defects. Inject single stuck-at faults and
	// compare candidate-set sizes.
	r := rand.New(rand.NewSource(9))
	fmt.Println("scenario 1: modeled single stuck-at defects")
	betterSD, ties := 0, 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		fi := r.Intn(len(col.Faults))
		obs, err := diagnose.ObservedResponses(comb, []fault.Fault{col.Faults[fi]}, tests)
		if err != nil {
			log.Fatal(err)
		}
		candPF := dicts[0].c.Candidates(mustSignature(dicts[0].c, obs))
		candSD := dicts[1].c.Candidates(mustSignature(dicts[1].c, obs))
		switch {
		case len(candSD) < len(candPF):
			betterSD++
		case len(candSD) == len(candPF):
			ties++
		}
		if trial < 5 {
			fmt.Printf("  defect %-16s -> p/f %2d candidates, s/d %2d candidates\n",
				col.Faults[fi].Name(comb), len(candPF), len(candSD))
		}
	}
	fmt.Printf("  over %d trials: same/different narrower %d times, equal %d times\n\n",
		trials, betterSD, ties)

	// Aggregate view straight from the dictionaries' partitions.
	qPF := diagnose.EvaluateResolution(pf)
	qSD := diagnose.EvaluateResolution(sd)
	qFull := diagnose.EvaluateResolution(core.NewFull(m))
	fmt.Println("aggregate diagnosability over all modeled faults:")
	fmt.Printf("  %-15s avg candidates %.2f, perfect %d/%d, worst %d\n",
		"pass/fail", qPF.AvgCandidates, qPF.Perfect, qPF.Faults, qPF.MaxCandidates)
	fmt.Printf("  %-15s avg candidates %.2f, perfect %d/%d, worst %d\n",
		"same/different", qSD.AvgCandidates, qSD.Perfect, qSD.Faults, qSD.MaxCandidates)
	fmt.Printf("  %-15s avg candidates %.2f, perfect %d/%d, worst %d\n\n",
		"full", qFull.AvgCandidates, qFull.Perfect, qFull.Faults, qFull.MaxCandidates)

	// Scenario 2: a non-modeled defect (two simultaneous stuck-at faults).
	// No dictionary row matches exactly; nearest-Hamming ranking still
	// surfaces the constituent faults.
	fmt.Println("scenario 2: non-modeled double fault, nearest-match ranking")
	a, b := 11%len(col.Faults), 73%len(col.Faults)
	obs, err := diagnose.ObservedResponses(comb, []fault.Fault{col.Faults[a], col.Faults[b]}, tests)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  injected: %s + %s\n", col.Faults[a].Name(comb), col.Faults[b].Name(comb))
	for _, d := range dicts {
		fmt.Printf("  %-15s top candidates:", d.name)
		for _, c := range d.c.Rank(mustSignature(d.c, obs), 5) {
			fmt.Printf(" %s(d=%d)", col.Faults[c.Fault].Name(comb), c.Distance)
		}
		fmt.Println()
	}
}

func mustCompile(d *core.Dictionary) *core.Compiled {
	c, err := d.Compile()
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func mustSignature(c *core.Compiled, observed []logic.BitVec) logic.BitVec {
	sig, err := c.Signature(observed)
	if err != nil {
		log.Fatal(err)
	}
	return sig
}
